package rpq

import (
	"fmt"
	"sort"

	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/obs"
	"gcore/internal/ppg"
)

// CSR product search: the kernels behind ShortestPaths, Reachable and
// AllPaths, run over the graph's CSR snapshot — node ordinals instead
// of identifiers, flat offset arrays instead of adjacency maps,
// interned integer labels instead of string-slice scans, and dense
// visit tables instead of map probes. Expansion follows ascending edge
// identifiers (CSR ranges ascend by edge identifier, exactly like ppg
// adjacency), which fixes the deterministic tie-breaking; the golden
// tests hold the results to the outputs of the map-based kernels these
// replaced.

// Interned-label sentinels for resolved transitions. csr.NoLabel
// (absent from the snapshot) is remapped to deadLabel so it cannot
// collide with the wildcard.
const (
	wildcardLabel int32 = -1 // any-edge transition: matches every edge
	deadLabel     int32 = -2 // label absent from the snapshot: matches nothing
)

// rtrans is an NFA transition with its label resolved against one
// snapshot's interning.
type rtrans struct {
	kind    transKind
	to      int32
	inverse bool
	lid     int32
	view    string
}

// resolve maps an automaton's transition labels to interned ids,
// memoised per engine (one resolution per (engine, automaton) pair —
// concurrent searches share it).
func (e *Engine) resolve(nfa *NFA) [][]rtrans {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.resCache == nil {
		e.resCache = map[*NFA][][]rtrans{}
	}
	if r, ok := e.resCache[nfa]; ok {
		return r
	}
	out := make([][]rtrans, len(nfa.trans))
	for q, ts := range nfa.trans {
		rts := make([]rtrans, len(ts))
		for i, t := range ts {
			rt := rtrans{kind: t.kind, to: int32(t.to), inverse: t.inverse, view: t.label}
			switch t.kind {
			case tEdge:
				if t.label == "" {
					rt.lid = wildcardLabel
				} else if lid := e.snap.LabelID(t.label); lid != csr.NoLabel {
					rt.lid = lid
				} else {
					rt.lid = deadLabel
				}
			case tNode:
				if lid := e.snap.LabelID(t.label); lid != csr.NoLabel {
					rt.lid = lid
				} else {
					rt.lid = deadLabel
				}
			}
			rts[i] = rt
		}
		out[q] = rts
	}
	e.resCache[nfa] = out
	return out
}

// ccfg is a product configuration over ordinals.
type ccfg struct{ u, q int32 }

// stateTab counts visits per product configuration: a flat dense
// array when |V|·|Q| is small enough, a map otherwise — the frontier
// loop never probes a Go map on graphs of ordinary size.
type stateTab struct {
	states int32
	dense  []int32
	sparse map[int64]int32
}

// denseLimit bounds the dense table at 4M entries (16 MB): beyond it
// the sparse fallback trades speed for memory.
const denseLimit = 1 << 22

func newStateTab(nodes, states int) *stateTab {
	t := &stateTab{states: int32(states)}
	if int64(nodes)*int64(states) <= denseLimit {
		t.dense = make([]int32, nodes*states)
	} else {
		t.sparse = make(map[int64]int32, 1024)
	}
	return t
}

func (t *stateTab) get(u, q int32) int32 {
	if t.dense != nil {
		return t.dense[int(u)*int(t.states)+int(q)]
	}
	return t.sparse[int64(u)*int64(t.states)+int64(q)]
}

func (t *stateTab) inc(u, q int32) {
	if t.dense != nil {
		t.dense[int(u)*int(t.states)+int(q)]++
		return
	}
	t.sparse[int64(u)*int64(t.states)+int64(q)]++
}

// expandOrdinal enumerates the product transitions leaving (u, q) in
// deterministic order: ε and node tests first as listed, edge
// transitions along ascending edge ordinals, view transitions along
// the resolver's segment order. Regular edge steps emit (viaEdge ≥ 0,
// nil slices) — the step's node is the emitted ordinal itself, so
// nothing is allocated per step. View steps pass their expansion
// through in graph terms.
func (e *Engine) expandOrdinal(rts []rtrans, u int32,
	emit func(v, q int32, cost float64, hops int32, viaEdge int32, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID)) error {
	snap := e.snap
	for _, rt := range rts {
		switch rt.kind {
		case tEps:
			emit(u, rt.to, 0, 0, -1, nil, nil)
		case tNode:
			if rt.lid >= 0 && snap.NodeHasLabel(u, rt.lid) {
				emit(u, rt.to, 0, 0, -1, nil, nil)
			}
		case tEdge:
			if rt.lid == deadLabel {
				continue
			}
			if rt.inverse {
				for _, eo := range snap.In(u) {
					if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
						emit(snap.Src(eo), rt.to, 1, 1, eo, nil, nil)
					}
				}
			} else {
				for _, eo := range snap.Out(u) {
					if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
						emit(snap.Dst(eo), rt.to, 1, 1, eo, nil, nil)
					}
				}
			}
		case tView:
			if e.views == nil {
				return fmt.Errorf("rpq: regex references path view %q but no views are in scope", rt.view)
			}
			segs, err := e.views.Segments(rt.view, snap.NodeID(u))
			if err != nil {
				return err
			}
			for _, s := range segs {
				if s.Cost <= 0 {
					return fmt.Errorf("rpq: path view %q produced non-positive cost %g (COST must be larger than zero)", rt.view, s.Cost)
				}
				to, ok := snap.Ord(s.To)
				if !ok {
					continue
				}
				via := s.Nodes
				if len(via) > 0 && via[0] == snap.NodeID(u) {
					via = via[1:]
				}
				emit(to, rt.to, s.Cost, int32(len(s.Edges)), -1, via, s.Edges)
			}
		}
	}
	return nil
}

// carrival is one discovered way of reaching a configuration, in
// ordinal terms. A regular edge step is encoded in-place (viaEdge ≥ 0,
// the step's node being u); only view steps carry slices.
type carrival struct {
	u, q     int32
	hops     int32
	viaEdge  int32
	parent   int32
	cost     float64
	viaNodes []ppg.NodeID
	viaEdges []ppg.EdgeID
}

// cheap is a typed binary min-heap of pqItems ordered by (cost, hops,
// seq). container/heap boxes every Push and Pop through an interface —
// one allocation per product arrival each way — which this avoids; the
// frontier loop does not allocate.
type cheap []pqItem

func pqLess(a, b pqItem) bool {
	if a.cost != b.cost {
		return a.cost < b.cost
	}
	if a.hops != b.hops {
		return a.hops < b.hops
	}
	return a.seq < b.seq
}

func (h *cheap) push(it pqItem) {
	*h = append(*h, it)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess(s[i], s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

func (h *cheap) pop() pqItem {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s = s[:n]
	*h = s
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && pqLess(s[l], s[m]) {
			m = l
		}
		if r < n && pqLess(s[r], s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// shortestState carries the k-shortest frontier so relaxation is a
// method call, not a closure allocated per heap pop.
type shortestState struct {
	k        int32
	seq      int
	pops     *stateTab
	arrivals []carrival
	h        cheap
}

// relax records one new arrival unless its configuration is already
// settled k times.
func (st *shortestState) relax(parent int, base *carrival, u, q int32, cost float64, hops int32, viaEdge int32, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID) {
	if st.pops.get(u, q) >= st.k {
		return
	}
	c := base.cost + cost
	hp := base.hops + hops
	st.arrivals = append(st.arrivals, carrival{
		u: u, q: q, cost: c, hops: hp,
		parent: int32(parent), viaEdge: viaEdge, viaNodes: viaNodes, viaEdges: viaEdges,
	})
	st.h.push(pqItem{cost: c, hops: int(hp), seq: st.seq, idx: len(st.arrivals) - 1})
	st.seq++
}

// ShortestPaths runs the deterministic k-shortest search from src and
// returns up to k cheapest conforming paths per destination, cheapest
// first. k must be ≥ 1. Paths are walks (arbitrary-path semantics,
// §A.1): nodes and edges may repeat, which is what keeps the search
// polynomial per destination. The search is Dijkstra over the product
// with a dense pop table, a typed heap and allocation-free edge
// relaxation.
func (e *Engine) ShortestPaths(src ppg.NodeID, nfa *NFA, k int) (map[ppg.NodeID][]PathResult, error) {
	if k < 1 {
		return nil, fmt.Errorf("rpq: k must be at least 1, got %d", k)
	}
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return map[ppg.NodeID][]PathResult{}, nil
	}
	snap := e.snap
	trans := e.resolve(nfa)
	st := &shortestState{
		k:        int32(k),
		seq:      1,
		pops:     newStateTab(snap.NumNodes(), nfa.NumStates()),
		arrivals: []carrival{{u: srcOrd, q: int32(nfa.start), parent: -1, viaEdge: -1}},
		h:        cheap{{idx: 0}},
	}
	accept := int32(nfa.accept)
	results := map[ppg.NodeID][]PathResult{}
	sigs := map[ppg.NodeID]map[WalkSig]bool{}

	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpShortest); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("k-shortest product search (csr)")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End()
		}()
	}
	for len(st.h) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQCSRShortest); err != nil {
				return nil, err
			}
		}
		steps++
		it := st.h.pop()
		a := st.arrivals[it.idx]
		if st.pops.get(a.u, a.q) >= st.k {
			continue
		}
		st.pops.inc(a.u, a.q)
		if a.q == accept {
			dst := snap.NodeID(a.u)
			if len(results[dst]) < k {
				res := e.reconstruct(src, st.arrivals, int32(it.idx))
				sig := res.Signature()
				if sigs[dst] == nil {
					sigs[dst] = map[WalkSig]bool{}
				}
				if !sigs[dst][sig] {
					sigs[dst][sig] = true
					results[dst] = append(results[dst], res)
				}
			}
		}
		// Expansion inlined (same transition order as expandOrdinal):
		// relaxation must not allocate, and a capture-free loop keeps
		// it that way.
		before := len(st.arrivals)
		base := a // copy: st.arrivals may grow during relaxation
		for _, rt := range trans[a.q] {
			switch rt.kind {
			case tEps:
				st.relax(it.idx, &base, a.u, rt.to, 0, 0, -1, nil, nil)
			case tNode:
				if rt.lid >= 0 && snap.NodeHasLabel(a.u, rt.lid) {
					st.relax(it.idx, &base, a.u, rt.to, 0, 0, -1, nil, nil)
				}
			case tEdge:
				if rt.lid == deadLabel {
					continue
				}
				if rt.inverse {
					for _, eo := range snap.In(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(it.idx, &base, snap.Src(eo), rt.to, 1, 1, eo, nil, nil)
						}
					}
				} else {
					for _, eo := range snap.Out(a.u) {
						if rt.lid == wildcardLabel || snap.EdgeHasLabel(eo, rt.lid) {
							st.relax(it.idx, &base, snap.Dst(eo), rt.to, 1, 1, eo, nil, nil)
						}
					}
				}
			case tView:
				if e.views == nil {
					return nil, fmt.Errorf("rpq: regex references path view %q but no views are in scope", rt.view)
				}
				segs, err := e.views.Segments(rt.view, snap.NodeID(a.u))
				if err != nil {
					return nil, err
				}
				for _, s := range segs {
					if s.Cost <= 0 {
						return nil, fmt.Errorf("rpq: path view %q produced non-positive cost %g (COST must be larger than zero)", rt.view, s.Cost)
					}
					to, ok := snap.Ord(s.To)
					if !ok {
						continue
					}
					via := s.Nodes
					if len(via) > 0 && via[0] == snap.NodeID(a.u) {
						via = via[1:]
					}
					st.relax(it.idx, &base, to, rt.to, s.Cost, int32(len(s.Edges)), -1, via, s.Edges)
				}
			}
		}
		pushed += len(st.arrivals) - before
		if err := e.gov.GrowFrontier(len(st.arrivals) - before); err != nil {
			return nil, err
		}
	}
	for _, prs := range results {
		found += len(prs)
	}
	return results, nil
}

// reconstruct rebuilds the graph-level path of an arrival chain,
// translating ordinals back to identifiers — the only point of the
// search where graph identifiers appear.
func (e *Engine) reconstruct(src ppg.NodeID, arrivals []carrival, idx int32) PathResult {
	var chain []int32
	for i := idx; i >= 0; i = arrivals[i].parent {
		chain = append(chain, i)
	}
	res := PathResult{Src: src, Nodes: []ppg.NodeID{src}}
	for i := len(chain) - 1; i >= 0; i-- {
		a := arrivals[chain[i]]
		switch {
		case a.viaNodes != nil || a.viaEdges != nil: // view step
			res.Nodes = append(res.Nodes, a.viaNodes...)
			res.Edges = append(res.Edges, a.viaEdges...)
		case a.viaEdge >= 0: // edge step: the step's node is the arrival's own
			res.Nodes = append(res.Nodes, e.snap.NodeID(a.u))
			res.Edges = append(res.Edges, e.snap.EdgeID(a.viaEdge))
		}
	}
	last := arrivals[idx]
	res.Dst = e.snap.NodeID(last.u)
	res.Cost = last.cost
	res.Hops = int(last.hops)
	return res
}

// Reachable returns, sorted, the nodes m such that some path from src
// to m conforms to the regex — the reachability-test semantics that a
// path pattern without a variable gets (§3, line 29). The sweep is BFS
// over the product with a dense seen table; destinations are collected
// per ordinal, so the ascending-identifier output order falls out
// without sorting.
func (e *Engine) Reachable(src ppg.NodeID, nfa *NFA) ([]ppg.NodeID, error) {
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return nil, nil
	}
	trans := e.resolve(nfa)
	seen := newStateTab(e.snap.NumNodes(), nfa.NumStates())
	seen.inc(srcOrd, int32(nfa.start))
	queue := []ccfg{{srcOrd, int32(nfa.start)}}
	accept := int32(nfa.accept)
	hit := make([]bool, e.snap.NumNodes())
	steps, pushed, found := 0, 0, 0
	if sp := e.col.Start(obs.OpReach); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("reachability sweep (csr)")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).Rows(0, int64(found)).End()
		}()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQCSRReach); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		if c.q == accept {
			hit[c.u] = true
		}
		before := len(queue)
		err := e.expandOrdinal(trans[c.q], c.u, func(v, q int32, _ float64, _ int32, _ int32, _ []ppg.NodeID, _ []ppg.EdgeID) {
			if seen.get(v, q) == 0 {
				seen.inc(v, q)
				queue = append(queue, ccfg{v, q})
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
	out := make([]ppg.NodeID, 0)
	for u, h := range hit {
		if h {
			out = append(out, e.snap.NodeID(int32(u)))
		}
	}
	found = len(out)
	return out, nil
}

// cprodEdge records one product transition of the ALL-paths sweep.
type cprodEdge struct {
	from, to ccfg
	viaEdge  int32
	viaNodes []ppg.NodeID // view steps only
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
	snap    *csr.Snapshot
	reached map[ccfg]bool
	rev     map[ccfg][]int32 // incoming product-edge indexes per config
	edges   []cprodEdge
}

// AllPaths performs the forward sweep from src.
func (e *Engine) AllPaths(src ppg.NodeID, nfa *NFA) (*AllPaths, error) {
	ap := &AllPaths{src: src, nfa: nfa, snap: e.snap,
		reached: map[ccfg]bool{}, rev: map[ccfg][]int32{}}
	srcOrd, ok := e.snap.Ord(src)
	if !ok {
		return ap, nil
	}
	trans := e.resolve(nfa)
	start := ccfg{srcOrd, int32(nfa.start)}
	ap.reached[start] = true
	queue := []ccfg{start}
	steps, pushed := 0, 0
	if sp := e.col.Start(obs.OpAllPaths); sp != nil {
		if sp.Verbose() {
			sp.SetLabel("ALL-paths sweep (csr)")
		}
		defer func() {
			sp.Frontier(int64(steps), int64(pushed)).End()
		}()
	}
	for len(queue) > 0 {
		if steps&(checkStride-1) == 0 {
			if err := e.gov.Checkpoint(faultinject.SiteRPQCSRAll); err != nil {
				return nil, err
			}
		}
		steps++
		c := queue[0]
		queue = queue[1:]
		before := len(ap.edges)
		err := e.expandOrdinal(trans[c.q], c.u, func(v, q int32, _ float64, _ int32, viaEdge int32, viaNodes []ppg.NodeID, viaEdges []ppg.EdgeID) {
			next := ccfg{v, q}
			ap.edges = append(ap.edges, cprodEdge{from: c, to: next, viaEdge: viaEdge, viaNodes: viaNodes, viaEdges: viaEdges})
			ap.rev[next] = append(ap.rev[next], int32(len(ap.edges)-1))
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
	accept := int32(a.nfa.accept)
	var ords []int32
	for c := range a.reached {
		if c.q == accept {
			ords = append(ords, c.u)
		}
	}
	sort.Slice(ords, func(i, j int) bool { return ords[i] < ords[j] })
	out := make([]ppg.NodeID, len(ords))
	for i, u := range ords {
		out[i] = a.snap.NodeID(u)
	}
	return out
}

// Projection summarises all conforming paths from the sweep's source
// to dst as the sets of nodes and edges lying on at least one such
// path: a backward sweep over the recorded product edges finds the
// configurations that can reach the accepting target. ok is false if
// no conforming path exists.
func (a *AllPaths) Projection(dst ppg.NodeID) (nodes []ppg.NodeID, edges []ppg.EdgeID, ok bool) {
	dstOrd, ok := a.snap.Ord(dst)
	if !ok {
		return nil, nil, false
	}
	target := ccfg{dstOrd, int32(a.nfa.accept)}
	if !a.reached[target] {
		return nil, nil, false
	}
	co := map[ccfg]bool{target: true}
	queue := []ccfg{target}
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
			nodeSet[a.snap.NodeID(pe.from.u)] = true
			switch {
			case pe.viaNodes != nil || pe.viaEdges != nil:
				for _, n := range pe.viaNodes {
					nodeSet[n] = true
				}
				for _, eid := range pe.viaEdges {
					edgeSet[eid] = true
				}
			case pe.viaEdge >= 0:
				nodeSet[a.snap.NodeID(pe.to.u)] = true
				edgeSet[a.snap.EdgeID(pe.viaEdge)] = true
			}
		}
	}
	for n := range nodeSet {
		nodes = append(nodes, n)
	}
	for eid := range edgeSet {
		edges = append(edges, eid)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	sort.Slice(edges, func(i, j int) bool { return edges[i] < edges[j] })
	return nodes, edges, true
}

// eachEdgeStep visits, in ascending edge-identifier order, the steps
// over one edge transition leaving n: every conforming edge and the
// node it leads to. The simple-path and trail baselines walk the
// snapshot through it.
func (e *Engine) eachEdgeStep(n ppg.NodeID, inverse bool, label string, f func(eid ppg.EdgeID, next ppg.NodeID) error) error {
	u, ok := e.snap.Ord(n)
	if !ok {
		return nil
	}
	lid := wildcardLabel
	if label != "" {
		if lid = e.snap.LabelID(label); lid == csr.NoLabel {
			return nil
		}
	}
	list := e.snap.Out(u)
	if inverse {
		list = e.snap.In(u)
	}
	for _, eo := range list {
		if lid != wildcardLabel && !e.snap.EdgeHasLabel(eo, lid) {
			continue
		}
		next := e.snap.Dst(eo)
		if inverse {
			next = e.snap.Src(eo)
		}
		if err := f(e.snap.EdgeID(eo), e.snap.NodeID(next)); err != nil {
			return err
		}
	}
	return nil
}
