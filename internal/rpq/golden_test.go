package rpq

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"gcore/internal/ppg"
)

// Frozen kernel outputs. The map-based kernels that once served as
// the CSR kernels' differential oracle rendered the corpora below;
// their renderings are committed under testdata/ and the kernels
// compare against them. The renderers here produced those files, so
// a byte difference is a behaviour change, never a format drift.

// renderPath writes one path result on one line.
func renderPath(sb *strings.Builder, p PathResult) {
	fmt.Fprintf(sb, "  %d->%d cost=%g hops=%d nodes=%v edges=%v\n", p.Src, p.Dst, p.Cost, p.Hops, p.Nodes, p.Edges)
}

// renderPathSet writes a per-destination result map in ascending
// destination order.
func renderPathSet(sb *strings.Builder, res map[ppg.NodeID][]PathResult) {
	dsts := make([]ppg.NodeID, 0, len(res))
	for d := range res {
		dsts = append(dsts, d)
	}
	sort.Slice(dsts, func(i, j int) bool { return dsts[i] < dsts[j] })
	for _, d := range dsts {
		for _, p := range res[d] {
			renderPath(sb, p)
		}
	}
}

// renderErr writes a kernel error, if any, and reports whether one
// occurred.
func renderErr(sb *strings.Builder, err error) bool {
	if err != nil {
		fmt.Fprintf(sb, "  ERR: %v\n", err)
		return true
	}
	return false
}

// renderKernels renders ShortestPaths (k = 1 and 3), Reachable,
// Destinations and every Projection of the engines newEngine builds
// over the differential corpus: 12 random graphs from seed 7, every
// diffRegexes automaton, the first three nodes of each graph as
// sources.
func renderKernels(t *testing.T, newEngine func(*ppg.Graph) *Engine) string {
	t.Helper()
	var sb strings.Builder
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 12; trial++ {
		g, ids := diffGraph(t, r)
		eng := newEngine(g)
		for ni, nfa := range diffRegexes(t) {
			for _, src := range ids[:3] {
				fmt.Fprintf(&sb, "trial %d regex %d src %d\n", trial, ni, src)
				for _, k := range []int{1, 3} {
					fmt.Fprintf(&sb, " shortest k=%d\n", k)
					res, err := eng.ShortestPaths(src, nfa, k)
					if !renderErr(&sb, err) {
						renderPathSet(&sb, res)
					}
				}
				reach, err := eng.Reachable(src, nfa)
				if !renderErr(&sb, err) {
					fmt.Fprintf(&sb, " reach %v\n", reach)
				}
				ap, err := eng.AllPaths(src, nfa)
				if renderErr(&sb, err) {
					continue
				}
				dsts := ap.Destinations()
				fmt.Fprintf(&sb, " destinations %v\n", dsts)
				for _, dst := range append(dsts, ppg.NodeID(99_999)) {
					nodes, edges, ok := ap.Projection(dst)
					fmt.Fprintf(&sb, " projection %d ok=%v nodes=%v edges=%v\n", dst, ok, nodes, edges)
				}
			}
		}
	}
	return sb.String()
}

// renderBaselines renders the simple-path and trail baselines over 6
// random graphs from seed 11 under (a|b)+, from each graph's first
// node (to its second for the counts).
func renderBaselines(t *testing.T, newEngine func(*ppg.Graph) *Engine) string {
	t.Helper()
	var sb strings.Builder
	r := rand.New(rand.NewSource(11))
	nfa := mustCompile(t, rxPlus(rxAlt(rxLabel("a"), rxLabel("b"))))
	for trial := 0; trial < 6; trial++ {
		g, ids := diffGraph(t, r)
		eng := newEngine(g)
		src, dst := ids[0], ids[1]
		fmt.Fprintf(&sb, "trial %d src %d dst %d\n", trial, src, dst)

		best, visits, err := eng.SimplePathSearch(src, nfa, 50_000)
		fmt.Fprintf(&sb, " simple visits=%d\n", visits)
		if !renderErr(&sb, err) {
			renderBest(&sb, best)
		}
		count, visits, err := eng.CountSimplePaths(src, dst, nfa, 50_000)
		fmt.Fprintf(&sb, " simple count=%d visits=%d err=%v\n", count, visits, err)

		best, visits, err = eng.TrailSearch(src, nfa, 20_000)
		fmt.Fprintf(&sb, " trail visits=%d\n", visits)
		if !renderErr(&sb, err) {
			renderBest(&sb, best)
		}
		count, visits, err = eng.CountTrails(src, dst, nfa, 20_000)
		fmt.Fprintf(&sb, " trail count=%d visits=%d err=%v\n", count, visits, err)
	}
	return sb.String()
}

// renderBest writes a one-path-per-destination result map.
func renderBest(sb *strings.Builder, best map[ppg.NodeID]PathResult) {
	set := make(map[ppg.NodeID][]PathResult, len(best))
	for d, p := range best {
		set[d] = []PathResult{p}
	}
	renderPathSet(sb, set)
}

// checkGolden compares got with testdata/name and reports the first
// differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: line %d differs\ngot:  %s\nwant: %s", name, i+1, g, w)
		}
	}
}
