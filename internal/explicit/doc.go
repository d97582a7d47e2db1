// Package explicit implements the explicit-path traffic-engineering
// schemes between weight-tuned OSPF and the unconstrained optimum: the
// MPLS-style k-shortest-path LP (pick per-demand splits over k candidate
// paths minimizing the maximum link utilization) and two-segment routing
// (detour each demand through at most one ECMP-shortest-path midpoint,
// chosen greedily).
//
// Both schemes route *on top of* a base IGP weight vector: candidate
// paths are k-cheapest under the weights, and segment legs follow the
// weights' even-ECMP shortest-path DAGs, exactly as a segment-routed or
// LDP-signalled network would forward. UnitFlows precomputes, per
// ordered node pair, the per-link flow of one traffic unit ECMP-routed
// between the pair — the shared building block: the direct (0-segment)
// flow, every midpoint detour, and the MPLS fallback all assemble from
// these vectors by linearity.
//
// The path LP is one restricted master LP on internal/lp's sparse
// revised simplex, solved two ways. PathLP.Solve enumerates k
// candidate paths per pair up front and loads them all into the
// master at once, with no pricing round. PathLP.SolveColGen performs
// column generation: each demand starts on its shortest path only,
// the master is solved (warm-started as it grows), and new paths are
// priced against the LP duals with internal/ksp as the shortest-path
// oracle until no simple path has negative reduced cost — an exact
// optimum over all simple paths, certified at termination by dual
// feasibility, so its MLU is at most Solve's. Both build columns with
// one builder and assemble the flow in one place. TwoSegmentOpt's sweeps
// prune midpoint candidates whose unit-flow support touches a link
// already at the acceptance threshold; the screen is exact (adding
// nonnegative flow cannot lower a utilization, and acceptance requires
// strict improvement), so screened sweeps are bitwise-identical to
// full ones. See DESIGN.md, "LP & column generation".
//
// Everything here is deterministic for any worker count: parallel
// per-destination builds write disjoint slots, greedy passes run in
// fixed demand order with first-wins tie-breaks, and both LP paths
// use internal/lp's deterministic simplex.
package explicit
