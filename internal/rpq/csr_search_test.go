package rpq

import (
	"math/rand"
	"reflect"
	"testing"

	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/ppg"
)

// Differential tests: the CSR kernels must produce byte-identical
// results to the legacy map-based kernels — same paths, same order,
// same tie-breaking — on every regex shape and graph.

// diffGraph builds a random labelled graph.
func diffGraph(t *testing.T, r *rand.Rand) (*ppg.Graph, []ppg.NodeID) {
	t.Helper()
	g := ppg.New("diff")
	nodeLabels := [][]string{{"A"}, {"B"}, {"A", "B"}, nil}
	n := 5 + r.Intn(30)
	var ids []ppg.NodeID
	for i := 0; i < n; i++ {
		id := ppg.NodeID(r.Intn(500))
		if _, ok := g.Node(id); ok {
			continue
		}
		if err := g.AddNode(&ppg.Node{ID: id, Labels: ppg.NewLabels(nodeLabels[r.Intn(len(nodeLabels))]...)}); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	edgeLabels := []string{"a", "b", "c"}
	for e := 0; e < n*3; e++ {
		eid := ppg.EdgeID(1000 + r.Intn(5000))
		if _, ok := g.Edge(eid); ok {
			continue
		}
		if err := g.AddEdge(&ppg.Edge{
			ID: eid, Src: ids[r.Intn(len(ids))], Dst: ids[r.Intn(len(ids))],
			Labels: ppg.NewLabels(edgeLabels[r.Intn(len(edgeLabels))]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

// diffRegexes covers labels, inverses, node tests, wildcards, unknown
// labels, alternation, closure and concatenation.
func diffRegexes(t *testing.T) []*NFA {
	t.Helper()
	exprs := []*ast.Regex{
		rxLabel("a"),
		rxStar(rxLabel("a")),
		rxPlus(rxAlt(rxLabel("a"), rxLabel("b"))),
		rxCat(rxLabel("a"), rxNode("B"), rxLabel("b")),
		rxStar(rxInv("a")),
		rxCat(rxStar(rxLabel("a")), rxOpt(rxLabel("c"))),
		rxLabel("zzz-not-present"), // dead label
		rxCat(rxNode("A"), rxStar(rxAlt(rxLabel("a"), rxInv("b")))),
		{Op: ast.RxLabel, Label: ""}, // wildcard edge
	}
	nfas := make([]*NFA, len(exprs))
	for i, rx := range exprs {
		n, err := Compile(rx)
		if err != nil {
			t.Fatalf("compile regex %d: %v", i, err)
		}
		nfas[i] = n
	}
	return nfas
}

func TestCSRMatchesLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g, ids := diffGraph(t, r)
		csrEng := NewEngine(g, csr.Of(g), nil)
		legEng := NewEngine(g, nil, nil)
		for ni, nfa := range diffRegexes(t) {
			for _, src := range ids[:3] {
				for _, k := range []int{1, 3} {
					got, err := csrEng.ShortestPaths(src, nfa, k)
					if err != nil {
						t.Fatalf("trial %d regex %d: csr shortest: %v", trial, ni, err)
					}
					want, err := legEng.ShortestPaths(src, nfa, k)
					if err != nil {
						t.Fatalf("trial %d regex %d: legacy shortest: %v", trial, ni, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("trial %d regex %d src %d k=%d: ShortestPaths diverged\ncsr:    %v\nlegacy: %v",
							trial, ni, src, k, got, want)
					}
				}

				gotR, err := csrEng.Reachable(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				wantR, err := legEng.Reachable(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(gotR, wantR) {
					t.Fatalf("trial %d regex %d src %d: Reachable diverged\ncsr:    %v\nlegacy: %v",
						trial, ni, src, gotR, wantR)
				}

				gotAP, err := csrEng.AllPaths(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				wantAP, err := legEng.AllPaths(src, nfa)
				if err != nil {
					t.Fatal(err)
				}
				gotDst, wantDst := gotAP.Destinations(), wantAP.Destinations()
				if !reflect.DeepEqual(gotDst, wantDst) {
					t.Fatalf("trial %d regex %d src %d: Destinations diverged\ncsr:    %v\nlegacy: %v",
						trial, ni, src, gotDst, wantDst)
				}
				for _, dst := range wantDst {
					gn, ge, gok := gotAP.Projection(dst)
					wn, we, wok := wantAP.Projection(dst)
					if gok != wok || !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ge, we) {
						t.Fatalf("trial %d regex %d src %d dst %d: Projection diverged\ncsr:    %v %v %v\nlegacy: %v %v %v",
							trial, ni, src, dst, gn, ge, gok, wn, we, wok)
					}
				}
				// A destination absent from the sweep must answer !ok on
				// both paths.
				if _, _, ok := gotAP.Projection(ppg.NodeID(99_999)); ok {
					t.Fatal("Projection accepted a node outside the graph")
				}
			}
		}
	}
}

// TestCSRBaselinesMatchLegacy checks the simple-path and trail
// baselines agree between the snapshot-backed and legacy adjacency.
func TestCSRBaselinesMatchLegacy(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	nfa := mustCompile(t, rxPlus(rxAlt(rxLabel("a"), rxLabel("b"))))
	for trial := 0; trial < 6; trial++ {
		g, ids := diffGraph(t, r)
		csrEng := NewEngine(g, csr.Of(g), nil)
		legEng := NewEngine(g, nil, nil)
		src, dst := ids[0], ids[1]

		gotB, gotV, err := csrEng.SimplePathSearch(src, nfa, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		wantB, wantV, err := legEng.SimplePathSearch(src, nfa, 50_000)
		if err != nil {
			t.Fatal(err)
		}
		if gotV != wantV || !reflect.DeepEqual(gotB, wantB) {
			t.Fatalf("trial %d: SimplePathSearch diverged (visits %d vs %d)", trial, gotV, wantV)
		}

		gc, gv, _ := csrEng.CountSimplePaths(src, dst, nfa, 50_000)
		wc, wv, _ := legEng.CountSimplePaths(src, dst, nfa, 50_000)
		if gc != wc || gv != wv {
			t.Fatalf("trial %d: CountSimplePaths diverged (%d/%d vs %d/%d)", trial, gc, gv, wc, wv)
		}

		gotT, gotTV, err := csrEng.TrailSearch(src, nfa, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		wantT, wantTV, err := legEng.TrailSearch(src, nfa, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		if gotTV != wantTV || !reflect.DeepEqual(gotT, wantT) {
			t.Fatalf("trial %d: TrailSearch diverged (visits %d vs %d)", trial, gotTV, wantTV)
		}

		gtc, gtv, _ := csrEng.CountTrails(src, dst, nfa, 20_000)
		wtc, wtv, _ := legEng.CountTrails(src, dst, nfa, 20_000)
		if gtc != wtc || gtv != wtv {
			t.Fatalf("trial %d: CountTrails diverged (%d/%d vs %d/%d)", trial, gtc, gtv, wtc, wtv)
		}
	}
}

// TestStateTabSparseFallback forces the sparse branch and checks the
// counting semantics match the dense branch.
func TestStateTabSparseFallback(t *testing.T) {
	dense := newStateTab(8, 3)
	sparse := &stateTab{states: 3, sparse: map[int64]int32{}}
	for i := 0; i < 10; i++ {
		u, q := int32(i%8), int32(i%3)
		dense.inc(u, q)
		sparse.inc(u, q)
	}
	for u := int32(0); u < 8; u++ {
		for q := int32(0); q < 3; q++ {
			if dense.get(u, q) != sparse.get(u, q) {
				t.Fatalf("dense/sparse disagree at (%d,%d): %d vs %d", u, q, dense.get(u, q), sparse.get(u, q))
			}
		}
	}
	// Above the dense limit the constructor must pick the sparse form.
	big := newStateTab(denseLimit, 2)
	if big.dense != nil {
		t.Fatal("stateTab over the dense limit still allocated a dense table")
	}
}
