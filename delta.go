package spef

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/routing"
)

// DeltaMetrics is the delta engine's metric read-out of one routing
// state: Fortz-Thorup cost, maximum link utilization, and the paper's
// log-spare utility. Values are bit-identical to what a batch scenario
// run reports for the same (topology, weights, demands) state.
type DeltaMetrics = delta.Metrics

// DeltaScratch is the private arena one reader needs to run WhatIf
// queries against a shared DeltaEngine concurrently.
type DeltaScratch = delta.Scratch

// DeltaEngine is the public face of internal/delta's incremental
// routing-state engine: the warm, event-driven evaluation of one
// (network, demands, weights) triple that `spef serve` holds per
// loaded topology. Events — weight pushes, link failures and
// restorations, demand updates — recompute only what they invalidate,
// and every resulting state is bit-identical to a from-scratch batch
// evaluation.
//
// A DeltaEngine is single-writer: one goroutine applies events. The
// WhatIf queries are pure reads and may run concurrently with each
// other (each with its own DeltaScratch) but not with events.
type DeltaEngine struct {
	en *delta.Engine
}

// NewDeltaEngine fully evaluates the triple and returns the warm
// state. Nil weights select InvCap weights — the deployed OSPF default
// the "invcap" router uses, so a fresh engine reports exactly what a
// batch invcap cell would. The engine copies both the demand matrix
// and the weights; the equal-cost tolerance is 0 (exact ties), the
// OSPF router's configuration.
func NewDeltaEngine(n *Network, d *Demands, weights []float64) (*DeltaEngine, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	if weights == nil {
		weights = routing.InvCapWeights(n.g)
	}
	en, err := delta.NewEngine(n.g, d.m, weights)
	if err != nil {
		return nil, asBadInput(err)
	}
	return &DeltaEngine{en: en}, nil
}

// NumNodes returns the intact topology's node count.
func (e *DeltaEngine) NumNodes() int { return e.en.NumNodes() }

// NumLinks returns the intact topology's link count.
func (e *DeltaEngine) NumLinks() int { return e.en.NumLinks() }

// NumDestinations returns the current number of positive-demand
// destinations.
func (e *DeltaEngine) NumDestinations() int { return e.en.NumDestinations() }

// Weights returns a copy of the operator-facing weight vector in
// intact link IDs (down links keep their recorded weight).
func (e *DeltaEngine) Weights() []float64 { return e.en.Weights() }

// Down returns the intact IDs of the links currently down, increasing.
func (e *DeltaEngine) Down() []int { return e.en.Down() }

// IsDown reports whether one intact link is currently down.
func (e *DeltaEngine) IsDown(link int) bool { return e.en.IsDown(link) }

// Metrics returns the current state's metric read-out.
func (e *DeltaEngine) Metrics() DeltaMetrics { return e.en.Metrics() }

// Footprint approximates the bytes held by the warm evaluator arenas —
// the number `spef serve` reports in /statz.
func (e *DeltaEngine) Footprint() int64 { return e.en.Footprint() }

// NewScratch returns a scratch for the WhatIf queries.
func (e *DeltaEngine) NewScratch() *DeltaScratch { return e.en.NewScratch() }

// Rerouted returns how many destinations the engine's weight and
// failure events and what-ifs have re-routed so far — the work its
// exact screen did not save; `spef serve` reports it per event type in
// /statz. Demand events and rejected events count nothing.
func (e *DeltaEngine) Rerouted() uint64 { return e.en.Rerouted() }

// Moved returns how many (destination, node) shortest-path distances
// the re-routes Rerouted counts have moved — the nodes whose in-place
// DAG repair did work; `spef serve` reports it per event type in
// /statz next to the re-routed destinations. It counts the same events.
func (e *DeltaEngine) Moved() uint64 { return e.en.Moved() }

// Resummed returns how many aggregate links the engine's accepted
// events and what-ifs have re-summed and re-costed so far: the links
// whose flow toward some destination moved, or every link for a demand
// step or a demand event that adds or drops a destination; `spef serve`
// reports it per event type in /statz next to the re-routed
// destinations. Rejected events count nothing.
func (e *DeltaEngine) Resummed() uint64 { return e.en.Resummed() }

// SetWeight records one link's weight (intact link ID). An up link is
// re-routed incrementally — only destinations the change can affect are
// recomputed; a down link's weight takes effect when LinkUp restores
// it.
func (e *DeltaEngine) SetWeight(link int, w float64) error {
	return asBadInput(e.en.SetWeight(link, w))
}

// LinkDown fails one intact link: its weight goes to +Inf, and only
// the destinations whose routing used it are re-routed. A failure that
// would strand a positive demand is rejected with the state untouched.
func (e *DeltaEngine) LinkDown(link int) error { return asBadInput(e.en.LinkDown(link)) }

// LinkUp restores one failed link under its recorded weight.
func (e *DeltaEngine) LinkUp(link int) error { return asBadInput(e.en.LinkUp(link)) }

// SetDemand updates one demand entry, re-propagating only the affected
// destination and re-summing only the links whose flow moved.
func (e *DeltaEngine) SetDemand(src, dst int, volume float64) error {
	return asBadInput(e.en.SetDemand(src, dst, volume))
}

// StepDemands advances to the next demand matrix of a temporal
// sequence, re-propagating only destinations whose columns changed.
// The engine copies d.
func (e *DeltaEngine) StepDemands(d *Demands) error {
	if d == nil {
		return fmt.Errorf("%w: nil demands", ErrBadInput)
	}
	return asBadInput(e.en.StepDemands(d.m))
}

// WhatIfWeight returns the metrics the engine would report after
// SetWeight(link, w), without committing it.
func (e *DeltaEngine) WhatIfWeight(s *DeltaScratch, link int, w float64) (DeltaMetrics, error) {
	m, err := e.en.WhatIfWeight(s, link, w)
	return m, asBadInput(err)
}

// WhatIfDemand returns the metrics the engine would report after
// SetDemand(src, dst, volume), without committing it.
func (e *DeltaEngine) WhatIfDemand(s *DeltaScratch, src, dst int, volume float64) (DeltaMetrics, error) {
	m, err := e.en.WhatIfDemand(s, src, dst, volume)
	return m, asBadInput(err)
}

// WhatIfLinkDown returns the metrics the engine would report after
// LinkDown(link), without committing it: the same screened re-route as
// the event, into a scratch the engine draws from an internal pool, so
// it costs about what the event costs.
func (e *DeltaEngine) WhatIfLinkDown(link int) (DeltaMetrics, error) {
	m, err := e.en.WhatIfLinkDown(link)
	return m, asBadInput(err)
}

// WhatIfLinkUp returns the metrics the engine would report after
// LinkUp(link), without committing it, on a pooled scratch like
// WhatIfLinkDown.
func (e *DeltaEngine) WhatIfLinkUp(link int) (DeltaMetrics, error) {
	m, err := e.en.WhatIfLinkUp(link)
	return m, asBadInput(err)
}
