package gcore_test

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gcore"
	"gcore/internal/core"
	"gcore/internal/parser"
	"gcore/internal/repro"
)

// Golden and differential tests. Every paper example and a set of
// SNB-toy queries must render byte-identically to the outputs the
// retired map-based kernels produced, which are frozen under
// testdata/legacy, sequentially and in parallel — the CSR snapshot
// layer is a pure performance optimisation with no observable
// behaviour of its own. The remaining ablations (property columns,
// ...) are compared against their reference paths live.

// renderResult serializes a query outcome deterministically: the
// table rendering, the graph's canonical JSON, or the error text.
func renderResult(res *gcore.Result, err error) string {
	if err != nil {
		return "ERR: " + err.Error()
	}
	out := ""
	if res.Table != nil {
		out += "TABLE\n" + res.Table.String()
	}
	if res.Graph != nil {
		data, jerr := res.Graph.MarshalJSON()
		if jerr != nil {
			return "MARSHAL-ERR: " + jerr.Error()
		}
		out += "GRAPH\n" + string(data)
	}
	return out
}

// engineSetup builds a fresh test engine configured by opts.
type engineSetup func(t *testing.T, opts ...gcore.Option) *gcore.Engine

// legacyGolden returns the frozen rendering testdata/legacy/dir/name
// of the map-based kernels' output.
func legacyGolden(t *testing.T, dir, name string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "legacy", dir, name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// evalAblated runs one query on a fresh engine built by setup, under
// the given ablation and worker count.
func evalAblated(t *testing.T, setup engineSetup, query string, abl core.Ablation, workers int) string {
	t.Helper()
	eng := setup(t, gcore.WithAblation(abl), gcore.WithParallelism(workers))
	res, err := eng.Eval(query)
	return renderResult(res, err)
}

// tourEngine builds the guided-tour toy database.
func tourEngine(t *testing.T, opts ...gcore.Option) *gcore.Engine {
	t.Helper()
	eng, err := repro.NewEngine(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// snbQueries returns an SNB toy engine setup and the query set
// exercising the hot kernels: indexed scans, multi-hop joins,
// reachability, stored shortest paths and weighted view search.
func snbQueries() (engineSetup, []string) {
	setup := func(t *testing.T, opts ...gcore.Option) *gcore.Engine {
		t.Helper()
		eng := gcore.NewEngine(append([]gcore.Option{gcore.WithDefaultGraph("snb_60")}, opts...)...)
		social, _ := eng.GenerateSNB(gcore.SNBConfig{Persons: 60, Seed: 1})
		if err := eng.RegisterGraph(social); err != nil {
			t.Fatal(err)
		}
		return eng
	}
	queries := []string{
		`SELECT c.name AS name MATCH (c:City) ORDER BY name`,
		`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City)
WHERE c.name = 'City0' ORDER BY a, b`,
		`CONSTRUCT (m) MATCH (n:Person)-/<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
		`CONSTRUCT (n)-/@p:reach/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person) WHERE n.anchor = TRUE`,
		`CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*)
MATCH (n)-[e:knows]->(m) WHERE (n:Person) AND (m:Person)`,
		`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)<-[:has_creator]-(msg:Post|Comment)-[:has_creator]->(m:Person)
ORDER BY a, b`,
	}
	return setup, queries
}

// TestCSRDifferentialPaper: every paper example query renders
// byte-identically to the map-based kernels' frozen output,
// sequentially and in parallel.
func TestCSRDifferentialPaper(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			want := legacyGolden(t, "paper", key)
			for _, workers := range []int{1, 0} {
				got := evalAblated(t, tourEngine, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: CSR result diverged from legacy golden\ncsr:\n%s\nlegacy:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestPropColumnsDifferential: predicates over FSET(V) properties —
// multi-valued employer sets, absent properties, typed range scans —
// render byte-identically with the columnar property store on and
// off, sequentially and in parallel. The SNB generator leaves ~10% of
// persons without an employer and gives ~10% a two-element set, so
// the employer column overflows and every absent/multi-valued branch
// of the predicate compiler runs.
func TestPropColumnsDifferential(t *testing.T) {
	setup, _ := snbQueries()
	queries := []string{
		// Eq on the overflow employer column: multi-valued rows
		// scalarize to NULL (drop), absent rows to the empty set.
		`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE p.employer = 'Company0' ORDER BY f, l`,
		// Neq keeps multi-valued and absent behaviour aligned too.
		`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.employer <> 'Company1' ORDER BY f`,
		// IN reaches inside multi-valued sets; absent gives FALSE.
		`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE 'Company2' IN p.employer ORDER BY f, l`,
		// SUBSET: the empty set is a subset of everything, so rows
		// with no employer are KEPT — the absent-keep branch.
		`SELECT p.firstName AS f, p.lastName AS l MATCH (p:Person)
WHERE p.employer SUBSET 'Company0' ORDER BY f, l`,
		// Range over the typed string column (interner id order).
		`SELECT p.lastName AS l MATCH (p:Person)
WHERE p.lastName >= 'Mayer' AND p.lastName < 'Reyes' ORDER BY l`,
		// Absent property under a typed column: anchor is only set on
		// the anchor person; everyone else must fall out via the
		// presence bitmap, not a zero value.
		`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.anchor = TRUE ORDER BY f`,
		// Equality against a property that no node defines at all
		// (no column exists; absent-keep semantics decide alone).
		`SELECT p.firstName AS f MATCH (p:Person)
WHERE p.nickname = 'none' ORDER BY f`,
	}
	for i, query := range queries {
		t.Run(fmt.Sprintf("q%d", i), func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				want := evalAblated(t, setup, query, core.Ablation{MapProps: true}, workers)
				got := evalAblated(t, setup, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: columnar result diverged from row-at-a-time\ncolumns:\n%s\nmaps:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestPropColumnsDifferentialTour: the same columns-on/off identity over every
// paper example on the guided-tour database (employer there is also
// multi-valued for some people and absent for Peter).
func TestPropColumnsDifferentialTour(t *testing.T) {
	keys := make([]string, 0, len(parser.PaperQueries))
	for k := range parser.PaperQueries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		query := parser.PaperQueries[key]
		t.Run(key, func(t *testing.T) {
			for _, workers := range []int{1, 0} {
				want := evalAblated(t, tourEngine, query, core.Ablation{MapProps: true}, workers)
				got := evalAblated(t, tourEngine, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: columnar result diverged from row-at-a-time\ncolumns:\n%s\nmaps:\n%s", workers, got, want)
				}
			}
		})
	}
}

// TestCSRDifferentialSNB: the same byte-identity on the synthetic SNB
// toy graph.
func TestCSRDifferentialSNB(t *testing.T) {
	setup, queries := snbQueries()
	for i, query := range queries {
		name := fmt.Sprintf("q%d", i)
		t.Run(name, func(t *testing.T) {
			want := legacyGolden(t, "snb", name)
			for _, workers := range []int{1, 0} {
				got := evalAblated(t, setup, query, core.Ablation{}, workers)
				if got != want {
					t.Fatalf("workers=%d: CSR result diverged from legacy golden\ncsr:\n%s\nlegacy:\n%s", workers, got, want)
				}
			}
		})
	}
}
