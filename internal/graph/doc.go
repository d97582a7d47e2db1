// Package graph provides the directed-graph substrate shared by every
// component of the SPEF reproduction: capacitated multigraphs, shortest
// paths (Dijkstra and Bellman-Ford), shortest-path DAG extraction with an
// equal-cost tolerance, exponential and even (ECMP) flow splitting,
// demand propagation, and path enumeration utilities.
//
// Nodes are dense integer IDs 0..N-1 with optional human-readable names.
// Links are directed and identified by their dense index; parallel links
// between the same node pair are allowed.
//
// # Two forms of every kernel
//
// Each hot kernel ships in two forms that compute bit-identical
// results:
//
//   - package-level functions (DijkstraTo, BuildDAG, DownwardDAG,
//     ExponentialSplits, PropagateDown, BellmanFordTo) allocate fresh
//     results — the convenient form for one-shot callers and retained
//     state;
//   - Workspace methods of the same names (plus PropagateDownInto) run
//     on a reusable scratch arena and allocate nothing in steady state
//     — the form the iterative optimizers (Algorithm 1's per-iteration
//     routing, Algorithm 2's per-iteration traffic distribution) and
//     the scenario sweeps run on. Workspace results are valid until
//     the next call on the same workspace; Clone what must outlive it.
//
// A WorkspacePool hands private arenas to concurrent workers — the
// per-destination fan-out of internal/par and the scenario engine's
// cell workers — so no shortest-path state is ever shared between
// goroutines.
//
// # Repairing a DAG after a weight event
//
// Workspace.RepairDAG updates a DAG that BuildDAG built, after some
// links' weights changed, to exactly — bit for bit — what BuildDAG
// would return under the new weights, touching only the nodes whose
// distance can change and the links around them. It shares buildDAG's
// membership predicate and Dijkstra's lazy heap and strict-improvement
// rule, so the two cannot drift. The incremental evaluator of
// internal/delta repairs its DAGs with it on every weight event,
// failure and what-if; BuildDAG stays where a DAG is built from
// nothing.
package graph
