package repro

import (
	"fmt"
	"time"

	"gcore"
	"gcore/internal/ast"
	"gcore/internal/csr"
	"gcore/internal/ppg"
	"gcore/internal/rpq"
)

// The complexity experiments of DESIGN.md (CPLX1–CPLX4): empirical
// validation of §4's claims. The paper's argument is qualitative —
// every fixed query evaluates in polynomial time because path
// semantics is walk-based and ALL is answered as a projection — so
// the experiments measure growth shapes, not absolute numbers.

// ScalePoint is one measurement of a scaling sweep.
type ScalePoint struct {
	Scale    int
	Nodes    int
	Edges    int
	Result   int // result cardinality (rows, nodes, paths — per experiment)
	Duration time.Duration
}

// engineAt builds an engine over a generated SNB graph of the given
// size, which is the default graph (the generator names it
// snb_<persons>).
func engineAt(persons int) (*gcore.Engine, *gcore.Graph, error) {
	eng := gcore.NewEngine(gcore.WithDefaultGraph(fmt.Sprintf("snb_%d", persons)))
	social, companies := eng.GenerateSNB(gcore.SNBConfig{Persons: persons, Seed: 1})
	if err := eng.RegisterGraph(social); err != nil {
		return nil, nil, err
	}
	if err := eng.RegisterGraph(companies); err != nil {
		return nil, nil, err
	}
	return eng, social, nil
}

// MatchQueryAt returns the fixed pattern-matching query used by CPLX1
// on a generated graph (a two-hop join with a filter).
func MatchQueryAt(g *gcore.Graph) string {
	return fmt.Sprintf(`SELECT n.firstName AS a, m.firstName AS b
MATCH (n:Person)-[:knows]->(m:Person)-[:isLocatedIn]->(c:City) ON %s
WHERE c.name = 'City0'`, g.Name())
}

// ComplexityMatch measures fixed-query MATCH evaluation across scales
// (experiment CPLX1). Data complexity must stay polynomial: doubling
// the graph must not square the runtime of this 2-hop query.
func ComplexityMatch(scales []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, s := range scales {
		eng, g, err := engineAt(s)
		if err != nil {
			return nil, err
		}
		q := MatchQueryAt(g)
		start := time.Now()
		res, err := eng.Eval(q)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Scale: s, Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Result: res.Table.Len(), Duration: time.Since(start),
		})
	}
	return out, nil
}

// ComplexityShortest measures single-source shortest-path pattern
// evaluation across scales (CPLX1): product-automaton search is
// O((V+E)·|Q|) per source.
func ComplexityShortest(scales []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, s := range scales {
		eng, g, err := engineAt(s)
		if err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`CONSTRUCT (n)-/@p:reach/->(m)
MATCH (n:Person)-/p<:knows*>/->(m:Person) ON %s
WHERE n.anchor = TRUE`, g.Name())
		start := time.Now()
		res, err := eng.Eval(q)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Scale: s, Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Result: res.Graph.NumPaths(), Duration: time.Since(start),
		})
	}
	return out, nil
}

// ComplexityConstruct measures grouped construction across scales
// (CPLX1): the nr_messages view of Figure 5 on generated data.
func ComplexityConstruct(scales []int) ([]ScalePoint, error) {
	var out []ScalePoint
	for _, s := range scales {
		eng, g, err := engineAt(s)
		if err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`CONSTRUCT (n)-[e]->(m) SET e.nr_messages := COUNT(*)
MATCH (n)-[e:knows]->(m) ON %s
WHERE (n:Person) AND (m:Person)
OPTIONAL (n)<-[c1]-(msg1:Post|Comment),
         (msg1)-[:reply_of]-(msg2),
         (msg2:Post|Comment)-[c2]->(m)
WHERE (c1:has_creator) AND (c2:has_creator)`, g.Name())
		start := time.Now()
		res, err := eng.Eval(q)
		if err != nil {
			return nil, err
		}
		out = append(out, ScalePoint{
			Scale: s, Nodes: g.NumNodes(), Edges: g.NumEdges(),
			Result: res.Graph.NumEdges(), Duration: time.Since(start),
		})
	}
	return out, nil
}

// GridGraph builds a w×w directed grid (edges right and down, label
// e). The number of simple paths from corner to corner is the central
// binomial coefficient — exponential in w — while walk-based shortest
// path search stays polynomial. Used by the CPLX2 ablation.
func GridGraph(w int) (*ppg.Graph, ppg.NodeID, ppg.NodeID) {
	g := ppg.New(fmt.Sprintf("grid_%d", w))
	id := func(r, c int) ppg.NodeID { return ppg.NodeID(r*w + c + 1) }
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			if err := g.AddNode(&ppg.Node{ID: id(r, c)}); err != nil {
				panic(err)
			}
		}
	}
	eid := ppg.EdgeID(uint64(w*w) + 1)
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			if c+1 < w {
				if err := g.AddEdge(&ppg.Edge{ID: eid, Src: id(r, c), Dst: id(r, c+1), Labels: ppg.NewLabels("e")}); err != nil {
					panic(err)
				}
				eid++
			}
			if r+1 < w {
				if err := g.AddEdge(&ppg.Edge{ID: eid, Src: id(r, c), Dst: id(r+1, c), Labels: ppg.NewLabels("e")}); err != nil {
					panic(err)
				}
				eid++
			}
		}
	}
	return g, id(0, 0), id(w-1, w-1)
}

// AblationPoint is one CPLX2/CPLX3 measurement across the three
// semantics the paper's §6 contrasts: G-CORE's walks, Cypher-9-style
// trails (no repeated edge), and simple paths.
type AblationPoint struct {
	Size         int
	WalkDuration time.Duration // arbitrary-path product search (G-CORE)
	WalkOK       bool
	SimpleVisits int // search states visited by the simple-path baseline
	SimplePaths  int // conforming simple paths counted (may hit the budget)
	SimpleBudget bool
	TrailVisits  int // search states visited by the no-repeated-edge baseline
	TrailPaths   int // conforming trails counted
	ProjNodes    int // ALL-paths projection size
	ProjEdges    int
	ProjDuration time.Duration
}

// AblationSimplePath compares G-CORE's walk semantics against the
// NP-hard simple-path semantics on grids (CPLX2) and measures the
// ALL-paths projection (CPLX3). maxVisits bounds the baseline.
func AblationSimplePath(widths []int, maxVisits int) ([]AblationPoint, error) {
	star := &ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{{Op: ast.RxLabel, Label: "e"}}}
	nfa, err := rpq.Compile(star)
	if err != nil {
		return nil, err
	}
	var out []AblationPoint
	for _, w := range widths {
		g, src, dst := GridGraph(w)
		eng := rpq.NewEngine(g, csr.Of(g), nil)
		pt := AblationPoint{Size: w}

		start := time.Now()
		res, err := eng.ShortestPaths(src, nfa, 1)
		if err != nil {
			return nil, err
		}
		pt.WalkDuration = time.Since(start)
		pt.WalkOK = len(res[dst]) == 1 && res[dst][0].Hops == 2*(w-1)

		count, visits, err := eng.CountSimplePaths(src, dst, nfa, maxVisits)
		if err != nil {
			return nil, err
		}
		pt.SimpleVisits = visits
		pt.SimplePaths = count
		pt.SimpleBudget = visits >= maxVisits

		tCount, tVisits, err := eng.CountTrails(src, dst, nfa, maxVisits)
		if err != nil {
			return nil, err
		}
		pt.TrailVisits = tVisits
		pt.TrailPaths = tCount

		start = time.Now()
		ap, err := eng.AllPaths(src, nfa)
		if err != nil {
			return nil, err
		}
		nodes, edges, ok := ap.Projection(dst)
		pt.ProjDuration = time.Since(start)
		if ok {
			pt.ProjNodes = len(nodes)
			pt.ProjEdges = len(edges)
		}
		out = append(out, pt)
	}
	return out, nil
}

// gridStarNFA compiles (:e)* once per call for the focused ablation
// helpers used by the benchmark harness.
func gridStarNFA() (*rpq.NFA, error) {
	star := &ast.Regex{Op: ast.RxStar, Subs: []*ast.Regex{{Op: ast.RxLabel, Label: "e"}}}
	return rpq.Compile(star)
}

// AblationWalkOnly runs just the walk-semantics shortest-path search
// on a w×w grid and reports whether the corner path was found.
func AblationWalkOnly(w int) (bool, error) {
	nfa, err := gridStarNFA()
	if err != nil {
		return false, err
	}
	g, src, dst := GridGraph(w)
	res, err := rpq.NewEngine(g, csr.Of(g), nil).ShortestPaths(src, nfa, 1)
	if err != nil {
		return false, err
	}
	return len(res[dst]) == 1 && res[dst][0].Hops == 2*(w-1), nil
}

// AblationSimpleOnly runs just the NP-hard simple-path baseline on a
// w×w grid, returning the number of conforming corner-to-corner paths.
func AblationSimpleOnly(w, maxVisits int) (int, error) {
	nfa, err := gridStarNFA()
	if err != nil {
		return 0, err
	}
	g, src, dst := GridGraph(w)
	count, _, err := rpq.NewEngine(g, csr.Of(g), nil).CountSimplePaths(src, dst, nfa, maxVisits)
	return count, err
}

// AblationTrailOnly runs just the no-repeated-edge (Cypher-9-style)
// baseline on a w×w grid, returning the number of conforming trails.
func AblationTrailOnly(w, maxVisits int) (int, error) {
	nfa, err := gridStarNFA()
	if err != nil {
		return 0, err
	}
	g, src, dst := GridGraph(w)
	count, _, err := rpq.NewEngine(g, csr.Of(g), nil).CountTrails(src, dst, nfa, maxVisits)
	return count, err
}

// AblationProjectionOnly computes just the ALL-paths projection on a
// w×w grid, returning its node and edge counts.
func AblationProjectionOnly(w int) (nodes, edges int, err error) {
	nfa, err := gridStarNFA()
	if err != nil {
		return 0, 0, err
	}
	g, src, dst := GridGraph(w)
	ap, err := rpq.NewEngine(g, csr.Of(g), nil).AllPaths(src, nfa)
	if err != nil {
		return 0, 0, err
	}
	ns, es, ok := ap.Projection(dst)
	if !ok {
		return 0, 0, fmt.Errorf("grid corner unreachable")
	}
	return len(ns), len(es), nil
}

// WeightedPoint is one CPLX4 measurement: Dijkstra over a PATH view
// versus the k-shortest enumeration needed to find the same cheapest
// path by hop-count search.
type WeightedPoint struct {
	Persons      int
	DijkstraCost float64
	Duration     time.Duration
	Paths        int
}

// WeightedShortest measures weighted shortest-path evaluation through
// the full engine (PATH view with COST, Kleene star, Dijkstra).
func WeightedShortest(scales []int) ([]WeightedPoint, error) {
	var out []WeightedPoint
	for _, s := range scales {
		eng, g, err := engineAt(s)
		if err != nil {
			return nil, err
		}
		// Annotate a weight first (messages exchanged), then search.
		view := fmt.Sprintf(`GRAPH VIEW weighted_%d AS (
CONSTRUCT (n)-[e]->(m) SET e.w := 1 + COUNT(*)
MATCH (n:Person)-[e:knows]->(m:Person) ON %s)`, s, g.Name())
		if _, err := eng.Eval(view); err != nil {
			return nil, err
		}
		q := fmt.Sprintf(`PATH wk = (x)-[e:knows]->(y) COST 1 / e.w
CONSTRUCT (n)-/@p:cheap/->(m)
MATCH (n:Person)-/p<~wk*> COST c/->(m:Person) ON weighted_%d
WHERE n.anchor = TRUE`, s)
		start := time.Now()
		res, err := eng.Eval(q)
		if err != nil {
			return nil, err
		}
		out = append(out, WeightedPoint{
			Persons:  s,
			Duration: time.Since(start),
			Paths:    res.Graph.NumPaths(),
		})
	}
	return out, nil
}
