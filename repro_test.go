package gcore_test

import (
	"runtime"
	"testing"

	"gcore"
	"gcore/internal/repro"
)

// TestReproPaper regenerates every figure and table of the paper and
// asserts the engine's output matches what the paper states. The
// per-check paper-vs-measured record lives in EXPERIMENTS.md; the
// same checks drive cmd/gcore-repro.
func TestReproPaper(t *testing.T) {
	checks := repro.RunAll()
	if len(checks) < 25 {
		t.Fatalf("only %d checks ran; the suite must cover Figures 1–5, the guided tour, Appendix A and Table 1", len(checks))
	}
	for _, c := range checks {
		name := c.ID + "/" + c.Name
		t.Run(name, func(t *testing.T) {
			if !c.OK() {
				t.Errorf("paper: %s\nmeasured: %s\nerror: %v", c.Paper, c.Measured, c.Err)
			}
		})
	}
}

// TestReproComplexityShape verifies the qualitative complexity claims
// of §4 on small instances: walk-based evaluation scales smoothly
// while the simple-path baseline explodes combinatorially, and the
// ALL-paths projection stays linear in the graph.
func TestReproComplexityShape(t *testing.T) {
	pts, err := repro.AblationSimplePath([]int{3, 5, 7}, 2_000_000)
	if err != nil {
		t.Fatal(err)
	}
	// Simple-path work explodes: visits(7) / visits(3) must exceed the
	// size ratio (49/9 ≈ 5.4) by a wide margin.
	if pts[2].SimpleVisits < pts[0].SimpleVisits*20 {
		t.Errorf("simple-path visits grew too slowly: %d → %d (not NP-hard-shaped)",
			pts[0].SimpleVisits, pts[2].SimpleVisits)
	}
	// Projection size is linear: exactly the grid's nodes and edges.
	for _, p := range pts {
		w := p.Size
		if p.ProjNodes != w*w || p.ProjEdges != 2*w*(w-1) {
			t.Errorf("width %d: projection %d/%d, want %d/%d (linear in the grid)",
				w, p.ProjNodes, p.ProjEdges, w*w, 2*w*(w-1))
		}
		if !p.WalkOK {
			t.Errorf("width %d: walk search missed the shortest corner path", w)
		}
	}
}

// TestConstructScalingAllocShape guards the paper's polynomial-time
// claim on the CPLX1 construction statement (the L39 view body): from
// 100 to 200 SNB persons the bytes allocated by one evaluation may
// grow at most 3× — a connected MATCH folded through a cross product
// grows them quadratically (about 4.7×).
func TestConstructScalingAllocShape(t *testing.T) {
	alloc := func(persons int) uint64 {
		eng := gcore.NewEngine()
		social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
		if err := eng.RegisterGraph(social); err != nil {
			t.Fatal(err)
		}
		stmt, err := gcore.Parse(constructScalingQuery(social.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eng.EvalStatement(stmt); err != nil { // warm-up
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := eng.EvalStatement(stmt); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(100), alloc(200)
	ratio := float64(large) / float64(small)
	t.Logf("bytes allocated: persons=100 %d, persons=200 %d (×%.2f)", small, large, ratio)
	if ratio > 3.0 {
		t.Errorf("allocation grew ×%.2f from 100 to 200 persons, want ≤ ×3.0 (superlinear fold)", ratio)
	}
}
