package spef_test

// Scenario-runner benchmarks: the batch and streaming delivery paths
// over a failure grid, at several worker counts. These are the CI
// bench-smoke targets (go test -bench=Scenario -benchtime=1x): cheap
// enough to run on every push, and they exercise the worker pool, the
// metric pipeline and the streaming iterator end to end.

import (
	"fmt"
	"testing"

	spef "repro"
)

func benchGrid(b *testing.B) []spef.Scenario {
	b.Helper()
	n := spef.NewNetwork()
	for i := 0; i < 6; i++ {
		n.AddNode(fmt.Sprintf("v%d", i))
	}
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 2}, {1, 4}, {3, 5}} {
		if _, _, err := n.AddDuplex(p[0], p[1], 10); err != nil {
			b.Fatal(err)
		}
	}
	d := spef.NewDemands(n)
	for _, dem := range [][2]int{{0, 3}, {2, 5}, {4, 1}, {5, 2}} {
		if err := d.Add(dem[0], dem[1], 1.5); err != nil {
			b.Fatal(err)
		}
	}
	grid := spef.Grid{
		Topologies: []spef.Topology{{Name: "bench6", Network: n, Demands: d}},
		Loads:      []float64{0.05, 0.1},
		Routers:    []spef.Router{spef.OSPF(nil), spef.SPEF(spef.WithMaxIterations(200))},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		b.Fatal(err)
	}
	return cells
}

func BenchmarkRunScenarios(b *testing.B) {
	cells := benchGrid(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				results, err := spef.RunScenarios(b.Context(), cells, spef.RunOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if len(results) != len(cells) {
					b.Fatalf("%d results for %d cells", len(results), len(cells))
				}
			}
		})
	}
}

func BenchmarkStreamScenarios(b *testing.B) {
	cells := benchGrid(b)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seen := 0
				for r := range spef.StreamScenarios(b.Context(), cells, spef.RunOptions{Workers: workers}) {
					if r.Err != nil {
						b.Fatalf("cell %s: %v", r.Scenario, r.Err)
					}
					seen++
				}
				if seen != len(cells) {
					b.Fatalf("streamed %d results for %d cells", seen, len(cells))
				}
			}
		})
	}
}
