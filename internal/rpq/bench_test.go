package rpq

import (
	"fmt"
	"math/rand"
	"testing"

	"gcore/internal/csr"
	"gcore/internal/ppg"
)

// benchGraph builds a random sparse labelled graph.
func benchGraph(n, deg int) *ppg.Graph {
	r := rand.New(rand.NewSource(7))
	g := ppg.New("bench")
	for i := 1; i <= n; i++ {
		if err := g.AddNode(&ppg.Node{ID: ppg.NodeID(i), Labels: ppg.NewLabels("N")}); err != nil {
			panic(err)
		}
	}
	eid := ppg.EdgeID(uint64(n) + 1)
	labels := []string{"a", "b"}
	for i := 1; i <= n; i++ {
		for d := 0; d < deg; d++ {
			dst := ppg.NodeID(r.Intn(n) + 1)
			if err := g.AddEdge(&ppg.Edge{ID: eid, Src: ppg.NodeID(i), Dst: dst,
				Labels: ppg.NewLabels(labels[r.Intn(2)])}); err != nil {
				panic(err)
			}
			eid++
		}
	}
	return g
}

func BenchmarkShortestPaths(b *testing.B) {
	rx := rxStar(rxAlt(rxLabel("a"), rxLabel("b")))
	nfa, err := Compile(rx)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{200, 800} {
		g := benchGraph(n, 4)
		eng := NewEngine(g, csr.Of(g), nil)
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ShortestPaths(1, nfa, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkKShortest(b *testing.B) {
	rx := rxStar(rxLabel("a"))
	nfa, err := Compile(rx)
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(400, 4)
	eng := NewEngine(g, csr.Of(g), nil)
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := eng.ShortestPaths(1, nfa, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkReachable(b *testing.B) {
	nfa, err := Compile(rxStar(rxAlt(rxLabel("a"), rxLabel("b"))))
	if err != nil {
		b.Fatal(err)
	}
	g := benchGraph(800, 4)
	eng := NewEngine(g, csr.Of(g), nil)
	for i := 0; i < b.N; i++ {
		if _, err := eng.Reachable(1, nfa); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompile(b *testing.B) {
	rx := rxCat(rxStar(rxAlt(rxLabel("a"), rxInv("b"))), rxPlus(rxNode("N")), rxOpt(rxLabel("c")))
	for i := 0; i < b.N; i++ {
		if _, err := Compile(rx); err != nil {
			b.Fatal(err)
		}
	}
}
