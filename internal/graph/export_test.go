package graph

// AppendNodesDescending exposes the heapsort node order to the external
// benchmarks, which build their tie-heavy inputs with internal/topo.
var AppendNodesDescending = appendNodesDescending
