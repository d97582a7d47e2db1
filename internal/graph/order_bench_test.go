package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topo"
)

// BenchmarkNodeOrder times the decreasing-distance node order two ways
// on tie-heavy inputs: InvCap weights on unit-capacity fabrics (a k=8
// fat-tree and a 12x12 grid), where every distance is a small integer
// and most of the order is runs of equal distance. "settle" derives the
// order from Dijkstra's settle order, as the kernels do; "heapsort"
// sorts the distances, as the kernels did. Each iteration orders one
// destination's result, cycling through all destinations.
func BenchmarkNodeOrder(b *testing.B) {
	fat, err := topo.FatTree(8)
	if err != nil {
		b.Fatal(err)
	}
	grid, err := topo.GridNet(12, 12, false)
	if err != nil {
		b.Fatal(err)
	}
	for _, net := range []struct {
		name string
		g    *graph.Graph
	}{{"fattree", fat}, {"grid", grid}} {
		g := net.g
		w := make([]float64, g.NumLinks())
		for id := range w {
			w[id] = 1 / g.Link(id).Cap
		}
		sps := make([]*graph.SPResult, g.NumNodes())
		for t := range sps {
			if sps[t], err = graph.DijkstraTo(g, w, t); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(net.name+"/settle", func(b *testing.B) {
			buf := make([]int, 0, g.NumNodes())
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				buf = graph.AppendSettledDescending(buf[:0], sps[i%len(sps)])
			}
		})
		b.Run(net.name+"/heapsort", func(b *testing.B) {
			buf := make([]int, 0, g.NumNodes())
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				buf = graph.AppendNodesDescending(buf[:0], sps[i%len(sps)].Dist)
			}
		})
	}
}
