package gcore_test

import (
	"sort"
	"testing"

	"gcore"
	"gcore/internal/parser"
)

// Differential tests between the plan-cached evaluation path (the
// default) and the uncached fallback (WithPlanCacheSize(-1)): every
// paper example and the SNB query set must render byte-identically
// with the cache on and off, sequentially and in parallel, on both
// the compile (first) and hit (second) execution. The plan cache is a
// pure performance optimisation with no observable behaviour.

// evalPlanCacheConfigured runs one query twice on a fresh engine and
// returns both renders: the first exercises the compile path, the
// second the cache-hit path (or, with the cache disabled, a second
// full compile).
func evalPlanCacheConfigured(t *testing.T, setup engineSetup, query string, disable bool, workers int) (string, string) {
	t.Helper()
	eng := setup(t, gcore.WithParallelism(workers), planCacheOff(disable))
	res, err := eng.Eval(query)
	first := renderResult(res, err)
	res, err = eng.Eval(query)
	return first, renderResult(res, err)
}

// planCacheOff disables the plan cache when off is set; otherwise it
// keeps the default capacity.
func planCacheOff(off bool) gcore.Option {
	if off {
		return gcore.WithPlanCacheSize(-1)
	}
	return gcore.WithPlanCacheSize(0)
}

func TestPlanCacheDifferentialPaper(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				w1, w2 := evalPlanCacheConfigured(t, tourEngine, query, true, workers)
				g1, g2 := evalPlanCacheConfigured(t, tourEngine, query, false, workers)
				if g1 != w1 {
					t.Fatalf("workers=%d: compile-path result diverged from uncached\ncached:\n%s\nuncached:\n%s", workers, g1, w1)
				}
				if g2 != w2 {
					t.Fatalf("workers=%d: hit-path result diverged from uncached\ncached:\n%s\nuncached:\n%s", workers, g2, w2)
				}
			}
		})
	}
}

func TestPlanCacheDifferentialSNB(t *testing.T) {
	setup, queries := snbQueries()
	for i, query := range queries {
		for _, workers := range []int{1, 0} {
			w1, w2 := evalPlanCacheConfigured(t, setup, query, true, workers)
			g1, g2 := evalPlanCacheConfigured(t, setup, query, false, workers)
			if g1 != w1 {
				t.Fatalf("query %d workers=%d: compile-path result diverged from uncached\ncached:\n%s\nuncached:\n%s", i, workers, g1, w1)
			}
			if g2 != w2 {
				t.Fatalf("query %d workers=%d: hit-path result diverged from uncached\ncached:\n%s\nuncached:\n%s", i, workers, g2, w2)
			}
		}
	}
}

// TestPlanCacheDifferentialMutation: a query / mutate / query sequence
// renders identically with the cache on and off — the generation bump
// retires the stale entry, so the cached engine sees the mutation.
func TestPlanCacheDifferentialMutation(t *testing.T) {
	const q = `SELECT n.firstName AS name MATCH (n:Person) ORDER BY name`
	runSeq := func(disable bool) []string {
		eng := newEngine(t, planCacheOff(disable))
		var out []string
		res, err := eng.Eval(q)
		out = append(out, renderResult(res, err))
		g, _ := eng.Graph("social_graph")
		if err := g.AddNode(&gcore.Node{
			ID:     eng.NextNodeID(),
			Labels: gcore.NewLabels("Person"),
			Props:  gcore.NewProperties(map[string]gcore.Value{"firstName": gcore.Str("Zed")}),
		}); err != nil {
			t.Fatal(err)
		}
		res, err = eng.Eval(q)
		out = append(out, renderResult(res, err))
		return out
	}
	want := runSeq(true)
	got := runSeq(false)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("step %d diverged\ncached:\n%s\nuncached:\n%s", i, got[i], want[i])
		}
	}
	if want[0] == want[1] {
		t.Fatal("mutation had no observable effect; the sequence proves nothing")
	}
}
