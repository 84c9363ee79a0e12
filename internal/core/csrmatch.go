package core

import (
	"sort"

	"gcore/internal/ast"
	"gcore/internal/bindings"
	"gcore/internal/csr"
	"gcore/internal/faultinject"
	"gcore/internal/ppg"
	"gcore/internal/value"
)

// CSR pattern kernels. scanNodes, extendEdge and the pushdown label
// fast path run over the graph's CSR snapshot: dense node/edge
// ordinals, flat adjacency arrays and interned integer labels replace
// the map probes and string comparisons of the ppg layout. Candidates
// ascend by node identifier and edges by edge identifier, so binding
// tables come out in a deterministic row order; the golden tests at
// the repository root hold them to the outputs of the map-based
// kernels these replaced.

// snapshot returns the graph's snapshot under the evaluator's
// ablation: a full rebuild on every generation change under
// FullRebuild. The snapshot is cached per generation inside the
// graph, so repeated calls during one evaluation are cheap.
// Acquisitions through here are not counted; see snapOf.
func (ev *Evaluator) snapshot(g *ppg.Graph) *csr.Snapshot {
	snap, _ := csr.OfCounted(g, ev.abl.FullRebuild)
	return snap
}

// snapOf is Evaluator.snapshot recorded in the statement's snapshot
// counters (reuses, full builds, delta applies).
func (c *evalCtx) snapOf(g *ppg.Graph) *csr.Snapshot {
	snap, info := csr.OfCounted(g, c.ev.abl.FullRebuild)
	c.col.CSREvent(info.Kind == csr.BuildReused)
	if info.Kind != csr.BuildReused {
		c.col.SnapshotBuild(info.Kind == csr.BuildDelta, info.Kind == csr.BuildFallback,
			info.DeltaOps, info.BytesShared, info.BytesCopied)
	}
	return snap
}

// resolvedSpec is a label spec with every name interned against one
// snapshot. Labels absent from the snapshot resolve to csr.NoLabel,
// which no element can carry, so a pattern naming one matches
// nothing.
type resolvedSpec [][]int32

func resolveSpec(snap *csr.Snapshot, spec ast.LabelSpec) resolvedSpec {
	rs := make(resolvedSpec, len(spec))
	for i, disj := range spec {
		lids := make([]int32, len(disj))
		for j, l := range disj {
			lids[j] = snap.LabelID(l)
		}
		rs[i] = lids
	}
	return rs
}

func (rs resolvedSpec) matchesNode(snap *csr.Snapshot, u int32) bool {
	for _, disj := range rs {
		found := false
		for _, lid := range disj {
			if snap.NodeHasLabel(u, lid) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

func (rs resolvedSpec) matchesEdge(snap *csr.Snapshot, e int32) bool {
	for _, disj := range rs {
		found := false
		for _, lid := range disj {
			if snap.EdgeHasLabel(e, lid) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// indexedNodeOrdinals consults the snapshot's per-label partitions
// for a node pattern: the most selective conjunct of the label spec
// yields the candidate ordinals (the sorted union of its disjuncts'
// partitions), which are exactly the nodes satisfying that conjunct.
// The remaining conjuncts and property filters are checked per
// candidate. ok is false when the spec has no conjunct to index on.
func indexedNodeOrdinals(snap *csr.Snapshot, rs resolvedSpec) ([]int32, bool) {
	if len(rs) == 0 {
		return nil, false
	}
	best := -1
	bestSize := 0
	for i, disj := range rs {
		size := 0
		for _, lid := range disj {
			size += len(snap.NodesWithLabel(lid))
		}
		if best == -1 || size < bestSize {
			best, bestSize = i, size
		}
	}
	disj := rs[best]
	if len(disj) == 1 {
		return snap.NodesWithLabel(disj[0]), true
	}
	set := map[int32]bool{}
	for _, lid := range disj {
		for _, u := range snap.NodesWithLabel(lid) {
			set[u] = true
		}
	}
	out := make([]int32, 0, len(set))
	for u := range set {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// scanNodes produces the binding table of a single node pattern.
// Candidates come from the snapshot's ordinal partitions when the
// pattern names a label (or the full ordinal range otherwise), label
// conjuncts are integer tests, WHERE conjuncts compilable against the
// property columns run as predicates on the candidate ordinals before
// any row exists (scanPrefilter), and only the remaining property
// checks touch the live ppg structs. Candidate chunks are matched
// concurrently and merged in input order.
func (c *evalCtx) scanNodes(g *ppg.Graph, np *ast.NodePattern, varName string, conjs []*conjunct) (*bindings.Table, error) {
	if np.Copy {
		return nil, errf("the copy form (=%s) is only allowed in CONSTRUCT", np.Var)
	}
	snap := c.snapOf(g)
	vars := []string{varName}
	for _, ps := range np.Props {
		if ps.Mode == ast.PropBind {
			vars = append(vars, ps.Var)
		}
	}
	tbl := bindings.EmptyTable(vars...)
	varSlot := tbl.SlotOf(varName)
	bp := newBindPlan(tbl, np.Props)
	w := tbl.Width()
	rs := resolveSpec(snap, np.Labels)
	ords, indexed := indexedNodeOrdinals(snap, rs)
	c.lastScanIndexed = indexed
	if !indexed {
		ords = make([]int32, snap.NumNodes())
		for i := range ords {
			ords[i] = int32(i)
		}
	}
	preds := c.scanPrefilter(snap, np, varName, conjs)
	parts, err := c.mapSlabs(len(ords), specsParallelSafe(np.Props), func(lo, hi int) ([]value.Value, error) {
		var slab []value.Value
		scratch := make([]value.Value, w)
		var combos []propCombo
		var colHits int64
		defer func() { c.col.PropColEvent(colHits, 0) }()
	cands:
		for i, u := range ords[lo:hi] {
			if i&(checkStride-1) == 0 {
				if err := c.gov.Checkpoint(faultinject.SiteCoreScan); err != nil {
					return nil, err
				}
			}
			if !rs.matchesNode(snap, u) {
				continue
			}
			for _, pr := range preds {
				colHits++
				if !pr.node.test(u, pr.p) {
					continue cands
				}
			}
			n := snap.Node(u)
			ok, err := c.propsMatch(g, n.Props, np.Props)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			for s := range scratch {
				scratch[s] = value.Absent
			}
			scratch[varSlot] = value.NodeRef(uint64(snap.NodeID(u)))
			combos = bp.addCombos(combos[:0], n.Props)
			slab = appendCombos(slab, scratch, combos)
		}
		return slab, nil
	})
	if err != nil {
		return nil, err
	}
	return c.mergeSlabs(tbl, parts)
}

// extendEdge extends every row of tbl over one edge pattern to the
// next node pattern. Adjacency walks the flat CSR arrays and the label
// tests are integer comparisons, in deterministic order (out-edges
// ascending, then in-edges ascending, self-loops emitted once under
// DirBoth).
func (c *evalCtx) extendEdge(g *ppg.Graph, tbl *bindings.Table, leftVar string, ep *ast.EdgePattern, edgeVar string, rightNp *ast.NodePattern, rightVar string) (*bindings.Table, error) {
	if ep.Copy {
		return nil, errf("the copy form [=%s] is only allowed in CONSTRUCT", ep.Var)
	}
	snap := c.snapOf(g)
	vars := append(tbl.Vars(), edgeVar, rightVar)
	for _, ps := range ep.Props {
		if ps.Mode == ast.PropBind {
			vars = append(vars, ps.Var)
		}
	}
	for _, ps := range rightNp.Props {
		if ps.Mode == ast.PropBind {
			vars = append(vars, ps.Var)
		}
	}
	out := bindings.EmptyTable(vars...)
	eSpec := resolveSpec(snap, ep.Labels)
	nSpec := resolveSpec(snap, rightNp.Labels)
	ex := newExtendPlan(tbl, out, leftVar, edgeVar, rightVar, ep, rightNp)

	safe := specsParallelSafe(ep.Props) && specsParallelSafe(rightNp.Props)
	parts, err := c.mapSlabs(tbl.Len(), safe, func(lo, hi int) ([]value.Value, error) {
		var slab []value.Value
		scratch := make([]value.Value, out.Width())
		var combos []propCombo
		for ri := lo; ri < hi; ri++ {
			if err := c.gov.Checkpoint(faultinject.SiteCoreExtend); err != nil {
				return nil, err
			}
			row := tbl.RowAt(ri)
			uid, ok := nodeOf(ex.left(row))
			if !ok {
				continue
			}
			u, ok := snap.Ord(uid)
			if !ok {
				continue
			}
			emit := func(eo, otherOrd int32) error {
				if !eSpec.matchesEdge(snap, eo) {
					return nil
				}
				e := snap.Edge(eo)
				if ok, err := c.propsMatch(g, e.Props, ep.Props); err != nil || !ok {
					return err
				}
				other := snap.NodeID(otherOrd)
				if !ex.agrees(row, uint64(e.ID), other) {
					return nil
				}
				if !nSpec.matchesNode(snap, otherOrd) {
					return nil
				}
				on := snap.Node(otherOrd)
				if ok, err := c.propsMatch(g, on.Props, rightNp.Props); err != nil || !ok {
					return err
				}
				combos = ex.fill(scratch, row, uint64(e.ID), uint64(other), e.Props, on.Props, combos)
				slab = appendCombos(slab, scratch, combos)
				return nil
			}
			var err error
			if ep.Dir == ast.DirOut || ep.Dir == ast.DirBoth {
				for _, eo := range snap.Out(u) {
					if err = emit(eo, snap.Dst(eo)); err != nil {
						return nil, err
					}
				}
			}
			if ep.Dir == ast.DirIn || ep.Dir == ast.DirBoth {
				for _, eo := range snap.In(u) {
					if ep.Dir == ast.DirBoth && snap.Src(eo) == snap.Dst(eo) {
						continue // self-loop already emitted by the out pass
					}
					if err = emit(eo, snap.Src(eo)); err != nil {
						return nil, err
					}
				}
			}
		}
		return slab, nil
	})
	if err != nil {
		return nil, err
	}
	return c.mergeSlabs(out, parts)
}

// labelTestFast answers a pushed-down label test (x:A|B) on one row
// through the snapshot when the referenced element belongs to the
// pattern graph: an interned-label membership probe instead of a full
// expression evaluation. handled is false when the row's value is a
// ref the snapshot does not know (another graph's element, a path) —
// the caller falls back to the interpreter, which searches all graphs
// in scope.
func labelTestFast(snap *csr.Snapshot, lids []int32, v value.Value, bound bool) (pass, handled bool) {
	if !bound || !v.IsRef() {
		return false, true // unbound or non-ref: the interpreter yields FALSE
	}
	id, _ := v.RefID()
	switch v.Kind() {
	case value.KindNode:
		if u, ok := snap.Ord(ppg.NodeID(id)); ok {
			for _, lid := range lids {
				if snap.NodeHasLabel(u, lid) {
					return true, true
				}
			}
			return false, true
		}
	case value.KindEdge:
		if e, ok := snap.EdgeOrd(ppg.EdgeID(id)); ok {
			for _, lid := range lids {
				if snap.EdgeHasLabel(e, lid) {
					return true, true
				}
			}
			return false, true
		}
	}
	return false, false
}
