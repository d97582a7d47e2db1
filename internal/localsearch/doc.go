// Package localsearch is the Fortz-Thorup local-search OSPF weight
// optimizer: the canonical weight-tuning baseline the paper's SPEF
// ("one more weight") claim is measured against. Starting from a
// configured weight vector it hill-climbs over single-link integer
// weight changes, scoring every candidate by routing the demand matrix
// with even ECMP splitting and evaluating the piecewise-linear
// Fortz-Thorup congestion cost, with random multi-link perturbations to
// escape plateaus (INFOCOM'00, "Internet Traffic Engineering by
// Optimizing OSPF Weights").
//
// Every candidate is scored by internal/delta's incremental Evaluator:
// a single-link weight perturbation repairs the shortest-path DAG and
// re-propagates the ECMP flow only for the destinations the change can
// actually affect, decided by an exact O(destinations) screen over the
// current shortest-path distances (see delta.Evaluator.SetWeight).
// Unaffected destinations keep their routing state bit-for-bit, and
// each link whose flow moved is re-summed in fixed destination order,
// so every incremental result is bit-identical to a full re-evaluation
// from scratch — a property the test suite and the bench harness's
// parity checks pin across random topologies, perturbation sequences
// and failure variants.
//
// Search fans candidate evaluations out over the process-wide
// internal/par worker pool using per-worker delta.Scratch arenas;
// candidate generation and acceptance stay on the coordinating
// goroutine, so the search trajectory is deterministic for any worker
// count. A
// failure-aware mode (Options.Failures) maintains one evaluator per
// failure and scores every candidate against the whole set — the
// robust weight-setting extension of Fortz and Thorup's follow-up work
// on single link failures. A failure is a set of intact link IDs, and
// its evaluator runs on the intact topology with those links at weight
// +Inf, as the delta engine models a link that is down: every state
// shares one link ID space, and a move on a failed link leaves that
// failure's state untouched.
package localsearch
