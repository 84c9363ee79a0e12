package gcore

import "gcore/internal/core"

// WithAblation re-exports withAblation for the external test package:
// the differential suites and ablation benchmarks run engines whose
// evaluator takes the slower reference paths core.Ablation selects.
func WithAblation(a core.Ablation) Option { return withAblation(a) }

// SwitchDefaultGraph replaces the engine-wide default graph of a live
// engine, as a pending WithDefaultGraph does once its graph is
// registered. The durability scripts use it to log one standalone
// set_default record.
func (e *Engine) SwitchDefaultGraph(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.cat.SetDefault(name); err != nil {
		return err
	}
	e.pendingDefault = ""
	return nil
}
