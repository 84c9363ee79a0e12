package rpq

import (
	"container/heap"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"gcore/internal/csr"
	"gcore/internal/ppg"
)

// Reference implementation for cross-checking: build the product of
// graph and automaton *explicitly* as a plain weighted digraph and run
// textbook Dijkstra on it. The engine must report exactly the same
// optimal cost for every destination. The same digraph, swept forward
// and backward, is the reference for the ALL-paths projection.

// refEdge is one product transition; an edge step carries the graph
// edge it traverses (step true), ε and node-test moves do not.
type refEdge struct {
	to   int
	cost float64
	step bool
	eid  ppg.EdgeID
}

// buildProduct expands every (node, state) configuration eagerly.
func buildProduct(g *ppg.Graph, nfa *NFA) (adj map[int][]refEdge, cfgID func(ppg.NodeID, int) int) {
	nodeIDs := g.NodeIDs()
	index := map[ppg.NodeID]int{}
	for i, n := range nodeIDs {
		index[n] = i
	}
	q := nfa.NumStates()
	cfgID = func(n ppg.NodeID, s int) int { return index[n]*q + s }
	adj = map[int][]refEdge{}
	for _, n := range nodeIDs {
		node, _ := g.Node(n)
		for s := 0; s < q; s++ {
			from := cfgID(n, s)
			for _, t := range nfa.trans[s] {
				switch t.kind {
				case tEps:
					adj[from] = append(adj[from], refEdge{to: cfgID(n, t.to)})
				case tNode:
					if node.Labels.Has(t.label) {
						adj[from] = append(adj[from], refEdge{to: cfgID(n, t.to)})
					}
				case tEdge:
					if t.inverse {
						for _, eid := range g.InEdges(n) {
							e, _ := g.Edge(eid)
							if t.label == "" || e.Labels.Has(t.label) {
								adj[from] = append(adj[from], refEdge{cfgID(e.Src, t.to), 1, true, eid})
							}
						}
					} else {
						for _, eid := range g.OutEdges(n) {
							e, _ := g.Edge(eid)
							if t.label == "" || e.Labels.Has(t.label) {
								adj[from] = append(adj[from], refEdge{cfgID(e.Dst, t.to), 1, true, eid})
							}
						}
					}
				}
			}
		}
	}
	return adj, cfgID
}

type refItem struct {
	cfg  int
	dist float64
}
type refPQ []refItem

func (p refPQ) Len() int           { return len(p) }
func (p refPQ) Less(i, j int) bool { return p[i].dist < p[j].dist }
func (p refPQ) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *refPQ) Push(x any)        { *p = append(*p, x.(refItem)) }
func (p *refPQ) Pop() any          { o := *p; x := o[len(o)-1]; *p = o[:len(o)-1]; return x }

func refDijkstra(adj map[int][]refEdge, start int) map[int]float64 {
	dist := map[int]float64{start: 0}
	h := &refPQ{{start, 0}}
	done := map[int]bool{}
	for h.Len() > 0 {
		it := heap.Pop(h).(refItem)
		if done[it.cfg] {
			continue
		}
		done[it.cfg] = true
		for _, e := range adj[it.cfg] {
			nd := it.dist + e.cost
			if d, ok := dist[e.to]; !ok || nd < d {
				dist[e.to] = nd
				heap.Push(h, refItem{e.to, nd})
			}
		}
	}
	return dist
}

// TestQuickEngineMatchesExplicitProduct cross-checks ShortestPaths and
// Reachable against the explicit product construction on random
// graphs and random regexes.
func TestQuickEngineMatchesExplicitProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 7)
		rx := randRegex(r, 3)
		nfa, err := Compile(rx)
		if err != nil {
			return false
		}
		eng := NewEngine(g, csr.Of(g), nil)
		got, err := eng.ShortestPaths(1, nfa, 1)
		if err != nil {
			return false
		}
		reach, err := eng.Reachable(1, nfa)
		if err != nil {
			return false
		}
		reachSet := map[ppg.NodeID]bool{}
		for _, n := range reach {
			reachSet[n] = true
		}

		adj, cfgID := buildProduct(g, nfa)
		dist := refDijkstra(adj, cfgID(1, nfa.start))
		for _, n := range g.NodeIDs() {
			want, ok := dist[cfgID(n, nfa.accept)]
			gotPaths, gotOK := got[n]
			if ok != gotOK || ok != reachSet[n] {
				t.Logf("seed %d node %d: ref reachable=%v engine=%v reach=%v (regex %s)",
					seed, n, ok, gotOK, reachSet[n], rx)
				return false
			}
			if ok && gotPaths[0].Cost != want {
				t.Logf("seed %d node %d: ref cost %v engine %v (regex %s)",
					seed, n, want, gotPaths[0].Cost, rx)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// randLabelledGraph builds a random graph with labels drawn from the
// randRegex alphabet {a, b} plus node labels.
func randLabelledGraph(r *rand.Rand, n int) *ppg.Graph {
	g := ppg.New("ref")
	nodeLabels := []string{"N", "M"}
	for i := 1; i <= n; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i), Labels: ppg.NewLabels(nodeLabels[r.Intn(2)])}); err != nil {
			panic(err)
		}
	}
	eid := ppg.EdgeID(100)
	labels := []string{"a", "b"}
	for i := 1; i <= n; i++ {
		for j := 1; j <= n; j++ {
			if r.Intn(3) != 0 {
				continue
			}
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: ppg.NodeID(i), Dst: ppg.NodeID(j),
				Labels: ppg.NewLabels(labels[r.Intn(2)])}); err != nil {
				panic(err)
			}
			eid++
		}
	}
	return g
}

// TestQuickKShortestMonotone: the k results per destination are in
// non-decreasing cost order and pairwise distinct.
func TestQuickKShortestMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 6)
		nfa, err := Compile(rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
		if err != nil {
			return false
		}
		res, err := NewEngine(g, csr.Of(g), nil).ShortestPaths(1, nfa, 4)
		if err != nil {
			return false
		}
		for _, paths := range res {
			seen := map[WalkSig]bool{}
			for i, p := range paths {
				if i > 0 && p.Cost < paths[i-1].Cost {
					return false
				}
				if seen[p.Signature()] {
					return false
				}
				seen[p.Signature()] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickNodeTestRegexProduct cross-checks regexes containing node
// label tests against the explicit product too.
func TestQuickNodeTestRegexProduct(t *testing.T) {
	rx := rxCat(rxStar(rxLabel("a")), rxNode("M"), rxStar(rxLabel("b")))
	nfa, err := Compile(rx)
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 6)
		eng := NewEngine(g, csr.Of(g), nil)
		got, err := eng.ShortestPaths(1, nfa, 1)
		if err != nil {
			return false
		}
		adj, cfgID := buildProduct(g, nfa)
		dist := refDijkstra(adj, cfgID(1, nfa.start))
		for _, n := range g.NodeIDs() {
			want, ok := dist[cfgID(n, nfa.accept)]
			paths, gotOK := got[n]
			if ok != gotOK {
				return false
			}
			if ok && paths[0].Cost != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// refSweep returns the configurations reachable from start over adj.
func refSweep(adj map[int][]refEdge, start int) map[int]bool {
	seen := map[int]bool{start: true}
	queue := []int{start}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, e := range adj[c] {
			if !seen[e.to] {
				seen[e.to] = true
				queue = append(queue, e.to)
			}
		}
	}
	return seen
}

// refProjection is the ALL-paths summary of src→dst paths over the
// explicit product: the nodes and edges of every product transition
// that is forward-reachable from the start configuration and
// co-reachable to the accepting configuration of dst. ok is false when
// dst does not accept.
func refProjection(g *ppg.Graph, nfa *NFA, adj map[int][]refEdge, cfgID func(ppg.NodeID, int) int,
	src, dst ppg.NodeID) (nodes []ppg.NodeID, edges []ppg.EdgeID, ok bool) {
	fwd := refSweep(adj, cfgID(src, nfa.start))
	target := cfgID(dst, nfa.accept)
	if !fwd[target] {
		return nil, nil, false
	}
	rev := map[int][]refEdge{}
	for from, es := range adj {
		for _, e := range es {
			rev[e.to] = append(rev[e.to], refEdge{to: from})
		}
	}
	co := refSweep(rev, target)
	nodeIDs := g.NodeIDs()
	q := nfa.NumStates()
	nodeSet := map[ppg.NodeID]bool{src: true, dst: true}
	edgeSet := map[ppg.EdgeID]bool{}
	for from, es := range adj {
		if !fwd[from] {
			continue
		}
		for _, e := range es {
			if !co[e.to] {
				continue
			}
			nodeSet[nodeIDs[from/q]] = true
			nodeSet[nodeIDs[e.to/q]] = true
			if e.step {
				edgeSet[e.eid] = true
			}
		}
	}
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	for e := range edgeSet {
		edges = append(edges, e)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return nodes, edges, true
}

// TestQuickAllPathsMatchesExplicitProduct cross-checks the ALL-paths
// sweep — Destinations and every Projection — against the explicit
// product on random graphs, with random regexes extended by a node
// test and an inverse step.
func TestQuickAllPathsMatchesExplicitProduct(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := randLabelledGraph(r, 6)
		rx := rxCat(randRegex(r, 3), rxOpt(rxCat(rxNode("M"), rxInv("a"))))
		nfa, err := Compile(rx)
		if err != nil {
			return false
		}
		ap, err := NewEngine(g, csr.Of(g), nil).AllPaths(1, nfa)
		if err != nil {
			return false
		}
		adj, cfgID := buildProduct(g, nfa)
		fwd := refSweep(adj, cfgID(1, nfa.start))
		wantDst := []ppg.NodeID{}
		for _, n := range g.NodeIDs() {
			if fwd[cfgID(n, nfa.accept)] {
				wantDst = append(wantDst, n)
			}
		}
		if got := ap.Destinations(); !reflect.DeepEqual(got, wantDst) {
			t.Logf("seed %d: destinations %v, reference %v (regex %s)", seed, got, wantDst, rx)
			return false
		}
		for _, n := range g.NodeIDs() {
			gn, ge, gok := ap.Projection(n)
			wn, we, wok := refProjection(g, nfa, adj, cfgID, 1, n)
			if gok != wok || !reflect.DeepEqual(gn, wn) || !reflect.DeepEqual(ge, we) {
				t.Logf("seed %d dst %d: projection %v %v %v, reference %v %v %v (regex %s)",
					seed, n, gn, ge, gok, wn, we, wok, rx)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}
