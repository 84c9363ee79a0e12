package core_test

import (
	"bytes"
	"testing"

	"gcore/internal/catalog"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/snb"
)

// The determinism contract of parallel evaluation: for every worker
// count, chunked partitions merge in input order, so binding tables —
// and every result derived from them, including fresh identifier
// allocation order — are identical to sequential evaluation.

// determinismQueries exercise each parallelised code path: indexed
// node scans, chunked edge expansion, pushdown filtering, and the
// per-source reachability / shortest / ALL path searches.
var determinismQueries = []string{
	`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)
WHERE c.name = 'City0'`,
	`CONSTRUCT (n)-[e]->(m) MATCH (n:Person)-[e:knows]->(m:Person) WHERE m.lastName = 'Doe'`,
	`CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	`CONSTRUCT (n)-/@p:sp/->(m) MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	`CONSTRUCT (n)-/@p/->(m) MATCH (n:Person)-/3 SHORTEST p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
	`CONSTRUCT (n)-/q/->(m) MATCH (n:Person)-/ALL q<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
}

// genEvaluator builds an evaluator over a generated SNB graph large
// enough that chunked jobs actually fan out (above minParallelItems).
func genEvaluator(t *testing.T, workers int) *core.Evaluator {
	t.Helper()
	cat := catalog.New()
	ds := snb.Generate(snb.Config{Persons: 300, Seed: 11}, cat.IDs())
	if err := cat.RegisterGraph(ds.Social); err != nil {
		t.Fatal(err)
	}
	return core.New(cat, core.Config{Workers: workers})
}

// render serialises a result so outputs can be compared byte for byte.
func render(t *testing.T, ev *core.Evaluator, src string) string {
	t.Helper()
	stmt, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v\nquery:\n%s", err, src)
	}
	res, err := ev.EvalStatement(stmt)
	if err != nil {
		t.Fatalf("eval: %v\nquery:\n%s", err, src)
	}
	if res.Table != nil {
		return res.Table.String()
	}
	var buf bytes.Buffer
	if err := res.Graph.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestParallelMatchesSequential(t *testing.T) {
	// One evaluator per parallelism setting; the same statements run
	// in the same order on each, so the identifier generators advance
	// in lockstep iff results are identical.
	seq := genEvaluator(t, 1)
	for _, workers := range []int{0, 2, 8} {
		par := genEvaluator(t, workers)
		for _, q := range determinismQueries {
			want := render(t, seq, q)
			got := render(t, par, q)
			if got != want {
				t.Errorf("workers=%d diverges from sequential on:\n%s\ngot:\n%s\nwant:\n%s", workers, q, got, want)
			}
		}
		// Re-seed the sequential reference for the next setting so
		// both sides keep identical identifier-generator state.
		seq = genEvaluator(t, 1)
	}
}
