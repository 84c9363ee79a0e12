package gcore_test

import (
	"fmt"
	"sort"
	"testing"

	"gcore/internal/core"
	"gcore/internal/parser"
)

// Differential tests between the selectivity-driven MATCH planner
// (the default) and the textual evaluation order (the TextualOrder
// ablation).
// Chain reversal and conjunct-join reordering restore the forward
// emission order after evaluating in the cheaper direction, so every
// query must render byte-identically with the planner on and off —
// the planner is a pure performance optimisation.

// TestPlannerDifferentialPaper: every paper example query renders
// byte-identically with and without the planner, sequentially and in
// parallel.
func TestPlannerDifferentialPaper(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				want := evalAblated(t, tourEngine, query, core.Ablation{TextualOrder: true}, workers)
				got := evalAblated(t, tourEngine, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: planned result diverged from textual\nplanned:\n%s\ntextual:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestPlannerDifferentialSNB: the same byte-identity on the synthetic
// SNB toy graph, plus queries specifically shaped to trigger chain
// reversal (rare label on the right end) and conjunct reordering
// (cheap pattern last in textual order).
func TestPlannerDifferentialSNB(t *testing.T) {
	setup, queries := snbQueries()
	queries = append(queries,
		`SELECT n.firstName AS a, c.name AS b
MATCH (n:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT n.firstName AS a
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)`,
		`SELECT n.firstName AS a, c.name AS b
MATCH (n:Person), (c:City)`,
		`SELECT n.firstName AS a
MATCH (n:Person)-[:knows]->(m:Person), (m)-[:isLocatedIn]->(c:City)`,
		`SELECT n.firstName AS a, t.name AS b
MATCH (n:Person) OPTIONAL (n)-[:hasInterest]->(t:Tag), (c:City)`,
	)
	for i, query := range queries {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				want := evalAblated(t, setup, query, core.Ablation{TextualOrder: true}, workers)
				got := evalAblated(t, setup, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: planned result diverged from textual\nplanned:\n%s\ntextual:\n%s", workers, got, want)
				}
			}
		})
	}
}
