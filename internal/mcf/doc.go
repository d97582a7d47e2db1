// Package mcf implements the multi-commodity flow core of the
// reproduction: destination-aggregated flow vectors with feasibility
// checks, all-or-nothing shortest-path assignment, a Frank-Wolfe
// solver for convex-cost (optimal) traffic engineering, and LP-based
// baselines (minimum MLU, lexicographic min-max load balance,
// minimum-cost MCF — paper Eqs. 2 and 9).
//
// Commodities follow the paper's convention: one commodity per
// destination node t, aggregating all sources (Section II-A). A Flow
// therefore holds PerDest[t][e] — commodity t's volume on link e —
// plus the aggregate Total[e], rebuilt deterministically by
// RecomputeTotal (destination order, not map order, so float
// summation is reproducible).
//
// # The solvers
//
//   - AllOrNothing / AllOrNothingInto route every demand entirely
//     along one shortest path under given link weights — the
//     Frank-Wolfe direction-finding step and the paper's Route_t
//     subproblem (Eq. 15). Destinations are routed concurrently on
//     the internal/par token pool; results are bit-identical to the
//     sequential order. A reused flow carries each commodity's node
//     order from its last pass, and the next pass recomputes the
//     distances along it instead of running Dijkstra, falling back
//     to Dijkstra for any commodity whose order a link undercuts. No
//     result depends on the kept order.
//   - FrankWolfe minimizes a convex link-cost objective over the flow
//     polytope (the optimal-TE reference the paper compares against);
//     FrankWolfeContinuation wraps it in capacity-inflation
//     continuation for instances that start infeasible (MLU >= 1).
//   - MinMLU, LexMinMax and MinCostMCF are the exact LP baselines on
//     internal/lp.
//
// Feasibility guards (CheckConservation, CheckCapacity) verify flow
// conservation per commodity and capacity compliance within a
// tolerance — the invariants every solver output must satisfy.
package mcf
