package rpq

import (
	"container/heap"
	"fmt"
	"sort"
	"sync"

	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/gov"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// checkStride is the number of frontier iterations a search loop runs
// between governor checkpoints: cancellation lands within one stride
// while the non-blocking poll stays invisible in profiles. The first
// iteration is always checked so injected faults fire deterministically.
const checkStride = 256

// Segment is one weighted step contributed by a PATH view (§A.4): a
// pair of endpoint nodes, the evaluated COST (strictly positive), and
// the expansion — the underlying walk — used to materialise stored
// paths. Nodes includes both endpoints; Edges the traversed edges.
type Segment struct {
	From, To ppg.NodeID
	Cost     float64
	Nodes    []ppg.NodeID
	Edges    []ppg.EdgeID
}

// ViewResolver supplies the segments of a PATH view leaving a node,
// in deterministic order.
type ViewResolver interface {
	Segments(name string, from ppg.NodeID) ([]Segment, error)
}

// Engine evaluates regular path queries over one graph.
type Engine struct {
	g     *ppg.Graph
	views ViewResolver

	// gov governs the search loops: cancellation checkpoints and the
	// product-frontier budget. A nil governor (engines built directly,
	// e.g. in tests) runs ungoverned — every method on it is nil-safe.
	gov *gov.Governor

	// col receives one span per kernel run, carrying the frontier
	// counters the kernel already maintains (pops, arrivals) — zero
	// per-step recording cost. Nil runs unobserved.
	col *obs.Collector

	// snap is the graph's CSR snapshot; non-nil engines run the CSR
	// kernels (csr_search.go), nil ones the legacy map-based kernels
	// below. The resolved-transition cache is shared by concurrent
	// searches on the same engine, hence the mutex.
	snap     *csr.Snapshot
	mu       sync.Mutex
	resCache map[*NFA][][]rtrans
}

// SetGovernor attaches a query governor to the engine's search loops.
// Searches already running are unaffected; nil detaches.
func (e *Engine) SetGovernor(g *gov.Governor) { e.gov = g }

// SetCollector attaches an observability collector: each kernel run
// (k-shortest, reachability, ALL-paths) records one span with its
// frontier totals. Nil detaches. The collector is internally
// synchronised, so concurrent searches on one engine may share it.
func (e *Engine) SetCollector(col *obs.Collector) { e.col = col }

// NewEngine creates an engine; views may be nil if the regexes used
// contain no ~view references. Searches run the CSR kernels over snap,
// the caller's snapshot of g, or the legacy map-based kernels over g's
// mutable maps when snap is nil (differential tests and ablation
// benchmarks compare the two).
func NewEngine(g *ppg.Graph, snap *csr.Snapshot, views ViewResolver) *Engine {
	return &Engine{g: g, views: views, snap: snap}
}

// PathResult is one path found by the search, with its cost (hop
// count for plain edges, summed segment costs for views) and its
// expansion in graph terms.
type PathResult struct {
	Src, Dst ppg.NodeID
	Cost     float64
	Hops     int
	Nodes    []ppg.NodeID
	Edges    []ppg.EdgeID
}

// cfg is a product-automaton configuration.
type cfg struct {
	n ppg.NodeID
	q int
}

// arrival is one discovered way of reaching a configuration.
type arrival struct {
	c        cfg
	cost     float64
	hops     int
	parent   int // arrival index, -1 at the source
	viaNodes []ppg.NodeID
	viaEdges []ppg.EdgeID
}

// pqItem orders arrivals by (cost, hops, insertion sequence); the
// sequence makes ties deterministic, implementing the fixed-order
// tie-breaking that §A.1 (footnote 4) allows an implementation to
// choose.
type pqItem struct {
	cost float64
	hops int
	seq  int
	idx  int
}

type pq []pqItem

func (p pq) Len() int { return len(p) }
func (p pq) Less(i, j int) bool {
	if p[i].cost != p[j].cost {
		return p[i].cost < p[j].cost
	}
	if p[i].hops != p[j].hops {
		return p[i].hops < p[j].hops
	}
	return p[i].seq < p[j].seq
}
func (p pq) Swap(i, j int) { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)   { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any     { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

// ShortestPaths runs the deterministic k-shortest search from src and
// returns up to k cheapest conforming paths per destination, cheapest
// first. k must be ≥ 1. Paths are walks (arbitrary-path semantics,
// §A.1): nodes and edges may repeat, which is what keeps the search
// polynomial per destination.
func (e *Engine) ShortestPaths(src ppg.NodeID, nfa *NFA, k int) (map[ppg.NodeID][]PathResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("rpq: k must be at least 1, got %d", k)
	}
	if e.snap != nil {
		return e.shortestCSR(src, nfa, k)
	}
	if _, ok := e.g.Node(src); !ok {
		return map[ppg.NodeID][]PathResult{}, nil
	}
	arrivals := []arrival{{c: cfg{src, nfa.start}, parent: -1}}
	h := &pq{{idx: 0}}
	seq := 1
	pops := map[cfg]int{}
	results := map[ppg.NodeID][]PathResult{}
	sigs := map[ppg.NodeID]map[WalkSig]bool{}

	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpShortest); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("k-shortest product search (legacy)")
		}
		defer func() { sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End() }()
	}
	for h.Len() > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQShortest); err != nil {
				return nil, err
			}
		}
		steps++
		it := heap.Pop(h).(pqItem)
		a := arrivals[it.idx]
		if pops[a.c] >= k {
			continue
		}
		pops[a.c]++
		if a.c.q == nfa.accept && len(results[a.c.n]) < k {
			res := e.reconstruct(src, arrivals, it.idx)
			sig := res.Signature()
			if sigs[a.c.n] == nil {
				sigs[a.c.n] = map[WalkSig]bool{}
			}
			if !sigs[a.c.n][sig] {
				sigs[a.c.n][sig] = true
				results[a.c.n] = append(results[a.c.n], res)
			}
		}
		emit := func(next cfg, cost float64, hops int, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID) {
			if pops[next] >= k {
				return
			}
			arrivals = append(arrivals, arrival{
				c: next, cost: a.cost + cost, hops: a.hops + hops,
				parent: it.idx, viaNodes: viaNodes, viaEdges: viaEdges,
			})
			heap.Push(h, pqItem{cost: a.cost + cost, hops: a.hops + hops, seq: seq, idx: len(arrivals) - 1})
			seq++
		}
		before := len(arrivals)
		if err := e.expand(nfa, a.c, emit); err != nil {
			return nil, err
		}
		pushed += len(arrivals) - before
		if err := e.gov.GrowFrontier(len(arrivals) - before); err != nil {
			return nil, err
		}
	}
	for _, prs := range results {
		found += len(prs)
	}
	return results, nil
}

// reconstruct rebuilds the graph-level path of an arrival chain.
func (e *Engine) reconstruct(src ppg.NodeID, arrivals []arrival, idx int) PathResult {
	var chain []int
	for i := idx; i >= 0; i = arrivals[i].parent {
		chain = append(chain, i)
	}
	res := PathResult{Src: src, Nodes: []ppg.NodeID{src}}
	for i := len(chain) - 1; i >= 0; i-- {
		a := arrivals[chain[i]]
		res.Nodes = append(res.Nodes, a.viaNodes...)
		res.Edges = append(res.Edges, a.viaEdges...)
	}
	last := arrivals[idx]
	res.Dst = last.c.n
	res.Cost = last.cost
	res.Hops = last.hops
	return res
}

// expand enumerates the product transitions leaving c in
// deterministic order: ε and node tests stay on the same graph node
// at zero cost; edge transitions follow the sorted adjacency lists;
// view transitions follow the resolver's segments.
func (e *Engine) expand(nfa *NFA, c cfg, emit func(next cfg, cost float64, hops int, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID)) error {
	node, ok := e.g.Node(c.n)
	if !ok {
		return nil
	}
	for _, t := range nfa.trans[c.q] {
		switch t.kind {
		case tEps:
			emit(cfg{c.n, t.to}, 0, 0, nil, nil)
		case tNode:
			if node.Labels.Has(t.label) {
				emit(cfg{c.n, t.to}, 0, 0, nil, nil)
			}
		case tEdge:
			if t.inverse {
				for _, eid := range e.g.InEdges(c.n) {
					ed, _ := e.g.Edge(eid)
					if t.label == "" || ed.Labels.Has(t.label) {
						emit(cfg{ed.Src, t.to}, 1, 1, []ppg.NodeID{ed.Src}, []ppg.EdgeID{eid})
					}
				}
			} else {
				for _, eid := range e.g.OutEdges(c.n) {
					ed, _ := e.g.Edge(eid)
					if t.label == "" || ed.Labels.Has(t.label) {
						emit(cfg{ed.Dst, t.to}, 1, 1, []ppg.NodeID{ed.Dst}, []ppg.EdgeID{eid})
					}
				}
			}
		case tView:
			if e.views == nil {
				return fmt.Errorf("rpq: regex references path view %q but no views are in scope", t.label)
			}
			segs, err := e.views.Segments(t.label, c.n)
			if err != nil {
				return err
			}
			for _, s := range segs {
				if s.Cost <= 0 {
					return fmt.Errorf("rpq: path view %q produced non-positive cost %g (COST must be larger than zero)", t.label, s.Cost)
				}
				via := s.Nodes
				if len(via) > 0 && via[0] == c.n {
					via = via[1:]
				}
				emit(cfg{s.To, t.to}, s.Cost, len(s.Edges), via, s.Edges)
			}
		}
	}
	return nil
}

// Reachable returns, sorted, the nodes m such that some path from src
// to m conforms to the regex — the reachability-test semantics that a
// path pattern without a variable gets (§3, line 29).
func (e *Engine) Reachable(src ppg.NodeID, nfa *NFA) ([]ppg.NodeID, error) {
	if e.snap != nil {
		return e.reachableCSR(src, nfa)
	}
	if _, ok := e.g.Node(src); !ok {
		return nil, nil
	}
	start := cfg{src, nfa.start}
	seen := map[cfg]bool{start: true}
	queue := []cfg{start}
	hit := map[ppg.NodeID]bool{}
	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpReach); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("reachability sweep (legacy)")
		}
		defer func() { sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End() }()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQReach); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		if c.q == nfa.accept {
			hit[c.n] = true
		}
		before := len(queue)
		err := e.expand(nfa, c, func(next cfg, _ float64, _ int, _ []ppg.NodeID, _ []ppg.EdgeID) {
			if !seen[next] {
				seen[next] = true
				queue = append(queue, next)
			}
		})
		if err != nil {
			return nil, err
		}
		pushed += len(queue) - before
		if err := e.gov.GrowFrontier(len(queue) - before); err != nil {
			return nil, err
		}
	}
	out := make([]ppg.NodeID, 0, len(hit))
	for n := range hit {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	found = len(out)
	return out, nil
}

// prodEdge records one product transition taken during the forward
// sweep of the ALL-paths summarisation.
type prodEdge struct {
	from, to cfg
	viaNodes []ppg.NodeID
	viaEdges []ppg.EdgeID
}

// AllPaths computes the forward product reachability from src once,
// recording every product transition; per-destination projections are
// then extracted with Projection. This is the graph-projection
// summarisation ([10]) that makes ALL-paths queries tractable even
// when the number of conforming paths is infinite.
type AllPaths struct {
	src     ppg.NodeID
	nfa     *NFA
	reached map[cfg]bool
	rev     map[cfg][]int // incoming product-edge indexes per config
	edges   []prodEdge

	// CSR form (snap non-nil): the same sweep over ordinals.
	snap     *csr.Snapshot
	cReached map[ccfg]bool
	cRev     map[ccfg][]int32
	cEdges   []cprodEdge
}

// AllPaths performs the forward sweep from src.
func (e *Engine) AllPaths(src ppg.NodeID, nfa *NFA) (*AllPaths, error) {
	if e.snap != nil {
		return e.allPathsCSR(src, nfa)
	}
	ap := &AllPaths{src: src, nfa: nfa, reached: map[cfg]bool{}, rev: map[cfg][]int{}}
	if _, ok := e.g.Node(src); !ok {
		return ap, nil
	}
	start := cfg{src, nfa.start}
	ap.reached[start] = true
	queue := []cfg{start}
	steps, pushed := 0, 0
	if sp := e.col.Start(obs.OpAllPaths); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("ALL-paths sweep (legacy)")
		}
		defer func() { sp.Frontier(int64(steps), int64(pushed)).End() }()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQAll); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		before := len(ap.edges)
		err := e.expand(nfa, c, func(next cfg, _ float64, _ int, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID) {
			ap.edges = append(ap.edges, prodEdge{from: c, to: next, viaNodes: viaNodes, viaEdges: viaEdges})
			ap.rev[next] = append(ap.rev[next], len(ap.edges)-1)
			if !ap.reached[next] {
				ap.reached[next] = true
				queue = append(queue, next)
			}
		})
		if err != nil {
			return nil, err
		}
		pushed += len(ap.edges) - before
		if err := e.gov.GrowFrontier(len(ap.edges) - before); err != nil {
			return nil, err
		}
	}
	return ap, nil
}

// Destinations returns, sorted, the nodes for which some conforming
// path from the sweep's source exists.
func (a *AllPaths) Destinations() []ppg.NodeID {
	if a.snap != nil {
		return a.destinationsCSR()
	}
	set := map[ppg.NodeID]bool{}
	for c := range a.reached {
		if c.q == a.nfa.accept {
			set[c.n] = true
		}
	}
	out := make([]ppg.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Projection summarises all conforming paths from the sweep's source
// to dst as the sets of nodes and edges lying on at least one such
// path. ok is false if no conforming path exists.
func (a *AllPaths) Projection(dst ppg.NodeID) (nodes []ppg.NodeID, edges []ppg.EdgeID, ok bool) {
	if a.snap != nil {
		return a.projectionCSR(dst)
	}
	target := cfg{dst, a.nfa.accept}
	if !a.reached[target] {
		return nil, nil, false
	}
	// Backward sweep over recorded product edges: configurations that
	// can reach the accepting target.
	co := map[cfg]bool{target: true}
	queue := []cfg{target}
	for len(queue) > 0 {
		c := queue[0]
		queue = queue[1:]
		for _, ei := range a.rev[c] {
			f := a.edges[ei].from
			if !co[f] {
				co[f] = true
				queue = append(queue, f)
			}
		}
	}
	nodeSet := map[ppg.NodeID]bool{a.src: true, dst: true}
	edgeSet := map[ppg.EdgeID]bool{}
	for _, pe := range a.edges {
		if co[pe.to] && co[pe.from] {
			nodeSet[pe.from.n] = true
			for _, n := range pe.viaNodes {
				nodeSet[n] = true
			}
			for _, e := range pe.viaEdges {
				edgeSet[e] = true
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
