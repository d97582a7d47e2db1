package graph

// AppendNodesDescending exposes the heapsort node order to the external
// benchmarks, which build their tie-heavy inputs with internal/topo.
var AppendNodesDescending = appendNodesDescending

// AppendSettledDescending exposes the order the kernels derive from a
// Dijkstra result's settle order to the same benchmarks.
func AppendSettledDescending(buf []int, sp *SPResult) []int {
	return appendSettledDescending(buf, sp.settled, sp.Dist)
}
