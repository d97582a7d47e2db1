// Package delta is the incremental routing-state engine: it owns the
// complete ECMP routing evaluation of one (topology, weights, demands)
// triple — per-destination shortest-path DAGs, even split ratios,
// per-destination link flows, the aggregate flow and its Fortz-Thorup
// cost — and updates it in place under typed events instead of
// recomputing from cold state:
//
//   - SetWeight re-routes only the destinations an exact screen over
//     cached distances proves the change can affect (the machinery the
//     local search uses, extracted here for general use), and repairs
//     each one's shortest-path DAG in place (graph.Workspace.RepairDAG)
//     instead of re-running Dijkstra: only the nodes whose distance can
//     change, and the links around them, are touched;
//   - SetDemand re-propagates a single destination's flow without
//     touching any shortest-path state;
//   - StepDemands advances to the next matrix of a temporal sequence,
//     re-propagating only the destinations whose columns changed;
//   - LinkDown/LinkUp and the FailLinks/RestoreLinks batches are atomic
//     weight events: a down link weighs +Inf, so a failure re-routes
//     only the destinations whose DAG held a failed link, in place and
//     allocation-free;
//   - the WhatIf queries score any of those events against the current
//     state into a scratch without committing it, bit-identical to
//     applying the event; a weight what-if copies each affected DAG into
//     the scratch and repairs the copy.
//
// Every update is bit-identical to a from-scratch evaluation of the
// resulting state — for a failure, through the link projection onto the
// graph.WithoutLinks variant — which the property tests and the
// FuzzEngineEvents target enforce, and which is what lets a long-running
// control plane (internal/serve, `spef serve`) answer event streams
// from warm state with the same numbers a batch run would produce.
//
// The split of responsibilities: Evaluator is the routing state of one
// graph, one weight vector and one demand matrix, with incremental
// updates; Engine layers the control-plane view on top (the recorded
// weights, a down-link set, failures as +Inf weights, pooled what-if
// scratches, counters of re-routed destinations and of the distances
// their repairs moved) and is what servers hold per topology. internal/localsearch scores its candidates on this
// package's Evaluator directly.
package delta
