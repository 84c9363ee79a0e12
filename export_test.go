package gcore

import "gcore/internal/core"

// WithAblation re-exports withAblation for the external test package:
// the differential suites and ablation benchmarks run engines whose
// evaluator takes the slower reference paths core.Ablation selects.
func WithAblation(a core.Ablation) Option { return withAblation(a) }
