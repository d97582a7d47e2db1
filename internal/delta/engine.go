package delta

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Engine is the control-plane view of one warm routing state: it keeps
// the operator-facing weight vector, the set of links currently down,
// and an Evaluator that stays in intact link IDs for the engine's whole
// life, a down link carrying weight +Inf. Such a link never relaxes in
// Dijkstra (d + Inf is never < Unreachable) and never passes the DAG
// slack test, so distances, settle order, DAG membership and node order
// equal those of the failure variant (graph.WithoutLinks) under its
// monotone link renumbering; the link carries exactly zero flow, which
// adds exact zeros to the Fortz sum, the MLU maximum and the utility
// sum, all taken in intact link order.
//
// Event semantics:
//
//   - SetWeight records the weight always; if the link is up it is a
//     one-link weight event, if it is down the weight takes effect when
//     LinkUp restores the link.
//   - LinkDown/LinkUp and FailLinks/RestoreLinks are one atomic weight
//     event each: the links go to +Inf, or back to their recorded
//     weights, together, and only the destinations the exact screen
//     admits are re-routed. An event that would strand a positive
//     demand is rejected with ErrBadInput and the state untouched.
//   - SetDemand/StepDemands are forwarded in node space, untouched by
//     failures.
//
// After any accepted event the state equals, through the link
// projection, a from-scratch evaluation of (variant topology, projected
// weights, current demands) bit for bit — the invariant the package
// property tests enforce.
//
// An Engine is single-writer: one goroutine applies events. The WhatIf
// queries are pure reads and may run concurrently with each other (each
// with its own Scratch) but not with events.
type Engine struct {
	g        *graph.Graph
	w        []float64 // operator-facing weights, authoritative
	down     []bool
	ev       *Evaluator    // intact link IDs; a down link weighs +Inf
	nw       []float64     // the new weights of the event being applied
	scratch  sync.Pool     // *Scratch for the what-ifs that bring none
	rerouted atomic.Uint64 // destinations re-routed by events and what-ifs
	moved    atomic.Uint64 // node distances those re-routes moved
	resummed atomic.Uint64 // aggregate links events and what-ifs re-summed
}

// NewEngine fully evaluates (g, tm, weights) and returns the warm
// state. The engine clones tm, so the caller keeps ownership of its
// matrix; weights are copied too.
func NewEngine(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Engine, error) {
	ev, err := NewEvaluator(g, tm.Clone(), weights)
	if err != nil {
		return nil, err
	}
	en := &Engine{
		g:    g,
		w:    append([]float64(nil), weights...),
		down: make([]bool, g.NumLinks()),
		ev:   ev,
	}
	en.scratch.New = func() any { return ev.NewScratch() }
	return en, nil
}

// Graph returns the intact topology.
func (en *Engine) Graph() *graph.Graph { return en.g }

// NumNodes returns the intact topology's node count.
func (en *Engine) NumNodes() int { return en.g.NumNodes() }

// NumLinks returns the intact topology's link count.
func (en *Engine) NumLinks() int { return en.g.NumLinks() }

// NumDestinations returns the current number of positive-demand
// destinations.
func (en *Engine) NumDestinations() int { return en.ev.NumDestinations() }

// Weights returns a copy of the operator-facing weight vector in
// intact link IDs (down links keep their recorded weight).
func (en *Engine) Weights() []float64 { return append([]float64(nil), en.w...) }

// Down returns the intact IDs of the links currently down, increasing.
func (en *Engine) Down() []int {
	out := []int{}
	for e, d := range en.down {
		if d {
			out = append(out, e)
		}
	}
	return out
}

// IsDown reports whether one intact link is currently down.
func (en *Engine) IsDown(link int) bool {
	return link >= 0 && link < len(en.down) && en.down[link]
}

// Cost returns the Fortz-Thorup cost of the current state.
func (en *Engine) Cost() float64 { return en.ev.Cost() }

// Metrics returns the full metric read-out of the current state.
func (en *Engine) Metrics() Metrics { return en.ev.Metrics() }

// Footprint approximates the bytes held by the warm evaluator arenas.
func (en *Engine) Footprint() int64 { return en.ev.Footprint() }

// Rerouted returns how many destinations the engine's weight and
// failure events and what-ifs have re-routed since it was built — the
// work the exact screen did not save. Demand events re-propagate flows
// without re-routing and count nothing; rejected events count nothing.
func (en *Engine) Rerouted() uint64 { return en.rerouted.Load() }

// Moved returns how many (destination, node) distances the re-routes
// Rerouted counts have moved: the nodes whose DAG repair did work, out
// of NumNodes per re-routed destination. It counts the same events.
func (en *Engine) Moved() uint64 { return en.moved.Load() }

// Resummed returns how many aggregate links the engine's accepted
// events and what-ifs have re-summed and re-costed since it was built:
// the links whose flow toward some destination moved, or every link for
// an event that re-sums them all (a demand step, or a demand event that
// adds or drops a destination). Rejected events count nothing.
func (en *Engine) Resummed() uint64 { return en.resummed.Load() }

// Evaluator exposes the underlying evaluator, in intact link IDs with
// every down link at weight +Inf — the state the oracle tests project
// onto the failure variant. Callers must not mutate it.
func (en *Engine) Evaluator() *Evaluator { return en.ev }

// NewScratch returns a scratch for the WhatIf queries.
func (en *Engine) NewScratch() *Scratch { return en.ev.NewScratch() }

func (en *Engine) checkLink(link int) error {
	if link < 0 || link >= en.g.NumLinks() {
		return fmt.Errorf("%w: link %d out of range", ErrBadInput, link)
	}
	return nil
}

// SetWeight records one link's weight. An up link is re-routed
// incrementally (only affected destinations recomputed); a down link's
// weight is recorded and takes effect when LinkUp restores it.
func (en *Engine) SetWeight(link int, w float64) error {
	if err := en.checkLink(link); err != nil {
		return err
	}
	if math.IsNaN(w) || w < 0 {
		return fmt.Errorf("%w: weight %v for link %d", ErrBadInput, w, link)
	}
	if !en.down[link] {
		if err := en.apply([]int{link}, []float64{w}); err != nil {
			return err
		}
	}
	en.w[link] = w
	return nil
}

// LinkDown fails one intact link: its weight goes to +Inf, re-routing
// the destinations whose DAG holds it. A failure that would strand a
// positive demand is rejected with the state untouched.
func (en *Engine) LinkDown(link int) error { return en.flipAll([]int{link}, true) }

// LinkUp restores one failed link under its recorded weight. Restoring
// capacity can only improve reachability, so LinkUp of a known link
// only fails if the remaining failures were already unroutable.
func (en *Engine) LinkUp(link int) error { return en.flipAll([]int{link}, false) }

// FailLinks fails a set of intact links as one atomic event — the
// batched form of LinkDown that SRLG groups and dual failures apply: an
// intermediate state of a link-by-link sequence may strand demand even
// when the end state is routable. A set that would strand a positive
// demand, or lists a link twice, is rejected with the state untouched.
// An empty set is a no-op.
func (en *Engine) FailLinks(links ...int) error { return en.flipAll(links, true) }

// RestoreLinks restores a set of failed links under their recorded
// weights as one event — the batched inverse of FailLinks.
func (en *Engine) RestoreLinks(links ...int) error { return en.flipAll(links, false) }

// flipAll fails (toDown) or restores a set of links as one weight
// event, validated as a whole before anything changes.
func (en *Engine) flipAll(links []int, toDown bool) error {
	if err := en.checkFlip(links, toDown); err != nil {
		return err
	}
	en.nw = en.flipWeights(en.nw, links, toDown)
	if err := en.apply(links, en.nw); err != nil {
		return err
	}
	for _, l := range links {
		en.down[l] = toDown
	}
	return nil
}

// checkFlip validates a failure (toDown) or restoration batch: every
// link in range and currently in the other state.
func (en *Engine) checkFlip(links []int, toDown bool) error {
	for _, l := range links {
		if err := en.checkLink(l); err != nil {
			return err
		}
		if en.down[l] == toDown {
			if toDown {
				return fmt.Errorf("%w: link %d is already down", ErrBadInput, l)
			}
			return fmt.Errorf("%w: link %d is not down", ErrBadInput, l)
		}
	}
	return nil
}

// flipWeights fills buf with the weights the links take when failed
// (+Inf) or restored (their recorded weights).
func (en *Engine) flipWeights(buf []float64, links []int, toDown bool) []float64 {
	buf = buf[:0]
	for _, l := range links {
		w := math.Inf(1)
		if !toDown {
			w = en.w[l]
		}
		buf = append(buf, w)
	}
	return buf
}

// apply commits one weight event and counts the destinations it
// re-routed, the distances it moved and the links it re-summed.
func (en *Engine) apply(links []int, w []float64) error {
	if err := en.ev.setWeights(links, w); err != nil {
		return err
	}
	en.rerouted.Add(uint64(len(en.ev.affected)))
	en.moved.Add(uint64(en.ev.moved))
	en.resummed.Add(uint64(en.ev.resummed))
	return nil
}

// whatIf scores one weight event into s without committing it and
// counts the destinations it re-routed, the distances it moved and the
// links it re-summed.
func (en *Engine) whatIf(s *Scratch, links []int, w []float64) (Metrics, error) {
	m, err := en.ev.tryWeights(s, links, w)
	if err == nil {
		en.rerouted.Add(uint64(len(s.affected)))
		en.moved.Add(uint64(s.moved))
		en.resummed.Add(uint64(s.resummed))
	}
	return m, err
}

// SetDemand updates one demand entry, re-propagating only the affected
// destination and re-summing only the links whose flow moved.
func (en *Engine) SetDemand(src, dst int, v float64) error {
	if err := en.ev.SetDemand(src, dst, v); err != nil {
		return err
	}
	en.resummed.Add(uint64(en.ev.resummed))
	return nil
}

// StepDemands advances to the next demand matrix of a temporal
// sequence, re-propagating only destinations whose columns changed.
// The engine clones m, so the caller keeps ownership.
func (en *Engine) StepDemands(m *traffic.Matrix) error {
	if err := en.ev.ReplaceDemands(m.Clone()); err != nil {
		return err
	}
	en.resummed.Add(uint64(en.ev.resummed))
	return nil
}

// WhatIfWeight returns the Metrics the engine would report after
// SetWeight(link, w), without committing it. For a down link that is
// the current state (the recorded weight has no routing effect).
func (en *Engine) WhatIfWeight(s *Scratch, link int, w float64) (Metrics, error) {
	if err := en.checkLink(link); err != nil {
		return Metrics{}, err
	}
	if math.IsNaN(w) || w < 0 {
		return Metrics{}, fmt.Errorf("%w: weight %v for link %d", ErrBadInput, w, link)
	}
	if en.down[link] {
		return en.ev.Metrics(), nil
	}
	return en.whatIf(s, []int{link}, []float64{w})
}

// WhatIfDemand returns the Metrics the engine would report after
// SetDemand(src, dst, v), without committing it.
func (en *Engine) WhatIfDemand(s *Scratch, src, dst int, v float64) (Metrics, error) {
	m, err := en.ev.TryDemand(s, src, dst, v)
	if err == nil {
		en.resummed.Add(uint64(s.resummed))
	}
	return m, err
}

// WhatIfFailLinks returns the Metrics the engine would report after
// FailLinks(links...), without committing it: the same screened
// re-route, into the scratch, bit-identical to applying the event.
func (en *Engine) WhatIfFailLinks(s *Scratch, links ...int) (Metrics, error) {
	return en.whatIfFlip(s, links, true)
}

// WhatIfLinkDown returns the Metrics the engine would report after
// LinkDown(link), without committing it — WhatIfFailLinks of one link
// on a scratch drawn from the engine's own pool.
func (en *Engine) WhatIfLinkDown(link int) (Metrics, error) {
	s := en.scratch.Get().(*Scratch)
	defer en.scratch.Put(s)
	return en.whatIfFlip(s, []int{link}, true)
}

// WhatIfLinkUp returns the Metrics the engine would report after
// LinkUp(link), without committing it, on a pooled scratch like
// WhatIfLinkDown.
func (en *Engine) WhatIfLinkUp(link int) (Metrics, error) {
	s := en.scratch.Get().(*Scratch)
	defer en.scratch.Put(s)
	return en.whatIfFlip(s, []int{link}, false)
}

func (en *Engine) whatIfFlip(s *Scratch, links []int, toDown bool) (Metrics, error) {
	if err := en.checkFlip(links, toDown); err != nil {
		return Metrics{}, err
	}
	s.nw = en.flipWeights(s.nw, links, toDown)
	return en.whatIf(s, links, s.nw)
}
