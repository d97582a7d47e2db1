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
// summation is reproducible). The commodity vectors are the rows of
// one table, listed in destination order; PerDest maps each
// destination to its row. Write rows in place and never replace them:
// passes, Blend, RecomputeTotal and Rows walk the table, after reading
// the map's current vectors into it, so a flow built by hand or with a
// replaced entry still reads and writes what its map holds. The table
// is built by the flow's first walk, so NewFlow allocates only the map
// and its vectors.
//
// # The solvers
//
//   - AllOrNothing / AllOrNothingInto route every demand entirely
//     along one shortest path under given link weights — the
//     Frank-Wolfe direction-finding step and the paper's Route_t
//     subproblem (Eq. 15). A reused flow carries each commodity's node
//     order from its last pass, and the next pass recomputes the
//     distances along it instead of running Dijkstra, falling back
//     to Dijkstra for any commodity whose order a link undercuts. No
//     result depends on the kept order.
//   - Flow.Propagate pushes each destination's demand down its DAG
//     under given or exponential split ratios — the paper's Algorithm
//     3, behind core.TrafficDistributionInto and routing.Flow.
//   - FrankWolfe minimizes a convex link-cost objective over the flow
//     polytope (the optimal-TE reference the paper compares against);
//     FrankWolfeContinuation wraps it in capacity-inflation
//     continuation for instances that start infeasible (MLU >= 1).
//   - MinMLU, LexMinMax and MinCostMCF are the exact LP baselines on
//     internal/lp.
//
// The first two are one pass over the flow's table: it validates a
// reused flow once (CheckReuse's rules), routes the destinations
// concurrently on the internal/par token pool, bit-identical to the
// sequential order, and rebuilds Total in destination order. The flow
// keeps the pass's error slots and the function it hands to par.Do, so
// a pass into a reused flow allocates nothing.
//
// Feasibility guards (CheckConservation, CheckCapacity) verify flow
// conservation per commodity and capacity compliance within a
// tolerance — the invariants every solver output must satisfy.
package mcf
