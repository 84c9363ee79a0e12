package gcore_test

import (
	"testing"

	"gcore"
	"gcore/internal/csr"
	"gcore/internal/parser"
	"gcore/internal/repro"
)

// Fuzz targets. Without -fuzz these run their seed corpus as ordinary
// tests; with `go test -fuzz=FuzzParse .` they explore the grammar.
// Invariants: the parser never panics and accepts its own output; the
// evaluator never panics and every graph it returns satisfies the PPG
// invariants.

func parserSeeds() []string {
	seeds := []string{
		"",
		";",
		"CONSTRUCT",
		"CONSTRUCT (n) MATCH (n)",
		"CONSTRUCT (n)-[e:a|b {k = 1}]->(m) MATCH (n)",
		"CONSTRUCT (n) MATCH (n)-/3 SHORTEST p <(:a|:b-)* !:C _> COST c/->(m) WHERE c > 0",
		"SELECT n.a AS x MATCH (n) ORDER BY x DESC LIMIT 3",
		"PATH w = (a)-[e]->(b) COST 1 / (1 + e.k) CONSTRUCT (n) MATCH (n)-/p<~w*>/->(m)",
		"GRAPH VIEW v AS (CONSTRUCT (n) MATCH (n:A) WHERE EXISTS (CONSTRUCT () MATCH (n)-[:x]->()))",
		"CONSTRUCT (x GROUP e :C {v := COUNT(*)}) WHEN x.v > 0 MATCH (n {employer=e})",
		"CONSTRUCT a, (n) MATCH (n) ON g UNION CONSTRUCT (m) MATCH (m) MINUS h",
		"CONSTRUCT (=n)-[=y]->(m) MATCH (n)-[y]->(m) OPTIONAL (n)-[:z]->(q) WHERE (q:L)",
		"CONSTRUCT (n) MATCH (n) WHERE CASE n.x WHEN 1 THEN TRUE ELSE FALSE END",
		"CONSTRUCT (n) FROM t",
		"CONSTRUCT (n) MATCH (n) WHERE NOT 'a' IN n.b AND n.c SUBSET n.d",
		"/* comment */ CONSTRUCT (n) # more\nMATCH (n)",
		"CONSTRUCT (n) MATCH (n) WHERE n.a = DATE '1/12/2014'",
		"CONSTRUCT (n) MATCH (n)-/@p:l {t = 0.5}/->(m)",
	}
	for _, q := range parser.PaperQueries {
		seeds = append(seeds, q)
	}
	return seeds
}

func FuzzParse(f *testing.F) {
	for _, s := range parserSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		stmt, err := gcore.Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		printed := stmt.String()
		again, err := gcore.Parse(printed)
		if err != nil {
			t.Fatalf("parser rejects its own output:\ninput: %q\nprinted: %q\nerr: %v", src, printed, err)
		}
		if again.String() != printed {
			t.Fatalf("printing is not a fixpoint:\nfirst: %q\nsecond: %q", printed, again.String())
		}
	})
}

// FuzzSnapshot drives the CSR remap boundary with random graph
// shapes: for any graph, Snapshot() ordinals must round-trip through
// identifiers, adjacency must agree with the ppg maps edge for edge
// (in order), and label membership must agree with the string sets.
func FuzzSnapshot(f *testing.F) {
	f.Add(uint32(1), uint8(8), uint8(12))
	f.Add(uint32(42), uint8(1), uint8(0))
	f.Add(uint32(7), uint8(40), uint8(90))
	f.Fuzz(func(t *testing.T, seed uint32, nNodes, nEdges uint8) {
		g := gcore.NewGraph("fuzz")
		labels := []string{"A", "B", "C", "knows", "likes"}
		rnd := seed
		next := func(mod int) int {
			// xorshift: deterministic, no time dependence
			rnd ^= rnd << 13
			rnd ^= rnd >> 17
			rnd ^= rnd << 5
			return int(rnd % uint32(mod))
		}
		var ids []gcore.NodeID
		for i := 0; i < int(nNodes); i++ {
			id := gcore.NodeID(next(1000))
			ls := gcore.NewLabels()
			if next(2) == 0 {
				ls = gcore.NewLabels(labels[next(len(labels))])
			}
			if g.AddNode(&gcore.Node{ID: id, Labels: ls}) == nil {
				ids = append(ids, id)
			}
		}
		if len(ids) > 0 {
			for i := 0; i < int(nEdges); i++ {
				e := &gcore.Edge{
					ID:  gcore.EdgeID(10_000 + next(10_000)),
					Src: ids[next(len(ids))], Dst: ids[next(len(ids))],
					Labels: gcore.NewLabels(labels[next(len(labels))]),
				}
				_ = g.AddEdge(e)
			}
		}

		s := csr.Of(g)
		if s.NumNodes() != g.NumNodes() || s.NumEdges() != g.NumEdges() {
			t.Fatalf("snapshot size mismatch: %d/%d nodes, %d/%d edges",
				s.NumNodes(), g.NumNodes(), s.NumEdges(), g.NumEdges())
		}
		for u := int32(0); u < int32(s.NumNodes()); u++ {
			id := s.NodeID(u)
			back, ok := s.Ord(id)
			if !ok || back != u {
				t.Fatalf("ordinal %d → id %d → ordinal %d (%v): round trip broken", u, id, back, ok)
			}
			out := g.OutEdges(id)
			if len(out) != len(s.Out(u)) {
				t.Fatalf("out degree of #%d: csr %d, ppg %d", id, len(s.Out(u)), len(out))
			}
			for i, eo := range s.Out(u) {
				if s.EdgeID(eo) != out[i] {
					t.Fatalf("out adjacency of #%d diverges at %d: csr #%d, ppg #%d", id, i, s.EdgeID(eo), out[i])
				}
			}
			in := g.InEdges(id)
			if len(in) != len(s.In(u)) {
				t.Fatalf("in degree of #%d: csr %d, ppg %d", id, len(s.In(u)), len(in))
			}
			for i, eo := range s.In(u) {
				if s.EdgeID(eo) != in[i] {
					t.Fatalf("in adjacency of #%d diverges at %d: csr #%d, ppg #%d", id, i, s.EdgeID(eo), in[i])
				}
			}
			nd, _ := g.Node(id)
			for _, l := range labels {
				if s.NodeHasLabel(u, s.LabelID(l)) != nd.Labels.Has(l) {
					t.Fatalf("label %q membership of #%d diverges", l, id)
				}
			}
		}
		for e := int32(0); e < int32(s.NumEdges()); e++ {
			eo, ok := s.EdgeOrd(s.EdgeID(e))
			if !ok || eo != e {
				t.Fatalf("edge ordinal %d round trip broken", e)
			}
			ed, _ := g.Edge(s.EdgeID(e))
			if s.NodeID(s.Src(e)) != ed.Src || s.NodeID(s.Dst(e)) != ed.Dst {
				t.Fatalf("edge #%d endpoints diverge", ed.ID)
			}
		}
	})
}

// fuzzLimits bounds the binding tables of fuzzed statements.
var fuzzLimits = gcore.WithLimits(gcore.Limits{MaxBindings: 200_000})

func FuzzEval(f *testing.F) {
	for _, s := range parserSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		// Bound adversarial cartesian products: the engine must reject
		// them with an error, not hang.
		eng, err := repro.NewEngine(fuzzLimits)
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Eval(src)
		if err != nil {
			return // evaluation errors are fine; panics and invalid graphs are not
		}
		if res.Graph != nil {
			if verr := res.Graph.Validate(); verr != nil {
				t.Fatalf("query produced an invalid graph:\nquery: %q\nviolation: %v", src, verr)
			}
		}
	})
}

// FuzzParamInline: evaluating a statement with $a/$b parameter
// bindings must be indistinguishable from splicing the literals into
// the source text — the uncached fallback is the oracle for the
// parameterised path.
func FuzzParamInline(f *testing.F) {
	for _, s := range []string{
		`SELECT n.firstName AS x MATCH (n:Person) WHERE n.employer = $b ORDER BY x`,
		`CONSTRUCT (n) MATCH (n:Person) WHERE n.age > $a`,
		`SELECT n.firstName AS x MATCH (n) WHERE n.age = $a OR n.firstName = $b ORDER BY x`,
		`CONSTRUCT (n {score := $a}) MATCH (n:Person)`,
		`CONSTRUCT (n) MATCH (n)-[e]->(m) WHERE e.since >= $a AND m.name <> $b`,
	} {
		f.Add(s, int64(30), "Acme")
	}
	f.Fuzz(func(t *testing.T, src string, iv int64, sv string) {
		params := map[string]gcore.Value{"a": gcore.Int(iv), "b": gcore.Str(sv)}
		inlined, err := parser.InlineParams(src, params)
		if err != nil {
			return // lex errors or parameters beyond $a/$b: nothing to compare
		}
		paramEng, err := repro.NewEngine(fuzzLimits)
		if err != nil {
			t.Fatal(err)
		}
		prep, err := paramEng.Prepare(src)
		if err != nil {
			// The statement itself is invalid; the inlined form must
			// agree that it is.
			inlineEng, ierr := repro.NewEngine()
			if ierr != nil {
				t.Fatal(ierr)
			}
			if _, ierr := inlineEng.Eval(inlined); ierr == nil {
				t.Fatalf("Prepare rejected %q (%v) but the inlined form evaluated", src, err)
			}
			return
		}
		gotRes, gotErr := prep.Eval(params)
		inlineEng, err := repro.NewEngine(fuzzLimits)
		if err != nil {
			t.Fatal(err)
		}
		wantRes, wantErr := inlineEng.Eval(inlined)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("success diverged for %q:\nparam err:  %v\ninline err: %v", src, gotErr, wantErr)
		}
		if gotErr != nil {
			return // both failed; messages may name the expression differently
		}
		got := renderResult(gotRes, nil)
		want := renderResult(wantRes, nil)
		if got != want {
			t.Fatalf("parameterised result diverged from inlined literals\nquery: %q\nparam:\n%s\ninline:\n%s", src, got, want)
		}
	})
}
