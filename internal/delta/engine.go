package delta

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/traffic"
)

// Engine is the control-plane view of one warm routing state: it keeps
// the intact topology, the operator-facing weight vector in intact link
// IDs, and the set of links currently down, and drives an Evaluator
// over whatever variant topology those failures leave. Events arrive in
// intact link IDs and node IDs; the engine handles the remapping, so a
// client never sees the renumbered variant space.
//
// Event semantics:
//
//   - SetWeight records the weight always; if the link is up it
//     re-routes incrementally, if it is down the weight simply takes
//     effect when LinkUp restores the link.
//   - LinkDown/LinkUp rebuild the variant topology (graph.WithoutLinks)
//     and rebind the evaluator's arenas onto it in place. A failure
//     that would strand a positive demand is rejected and the previous
//     state restored.
//   - SetDemand/StepDemands are forwarded in node space, untouched by
//     failures.
//
// After any accepted event the state is bit-identical to a from-scratch
// evaluation of (variant topology, projected weights, current demands)
// — the invariant the package property tests enforce.
//
// An Engine is single-writer: one goroutine applies events. The WhatIf
// queries are pure reads and may run concurrently with each other (each
// with its own Scratch) but not with events.
type Engine struct {
	g     *graph.Graph
	w     []float64 // intact link ID space, authoritative
	down  []bool
	ndown int
	keep  []int // variant link -> intact link; nil when intact
	rev   []int // intact link -> variant link or -1; nil when intact
	ev    *Evaluator
}

// NewEngine fully evaluates (g, tm, weights) and returns the warm
// state. The engine clones tm, so the caller keeps ownership of its
// matrix; weights are copied too.
func NewEngine(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Engine, error) {
	ev, err := NewEvaluator(g, tm.Clone(), weights)
	if err != nil {
		return nil, err
	}
	return &Engine{
		g:    g,
		w:    append([]float64(nil), weights...),
		down: make([]bool, g.NumLinks()),
		ev:   ev,
	}, nil
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
	out := make([]int, 0, en.ndown)
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

// Evaluator exposes the underlying variant-space evaluator — the batch
// oracle tests compare against. Callers must not mutate it.
func (en *Engine) Evaluator() *Evaluator { return en.ev }

// NewScratch returns a scratch for the WhatIf queries, sized for the
// current variant (it refits itself if the shape changes later).
func (en *Engine) NewScratch() *Scratch { return en.ev.NewScratch() }

// mapLink translates an intact link ID into the current variant's
// space (-1 when the link is down).
func (en *Engine) mapLink(e int) int {
	if en.rev == nil {
		return e
	}
	return en.rev[e]
}

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
		if err := en.ev.SetWeight(en.mapLink(link), w); err != nil {
			return err
		}
	}
	en.w[link] = w
	return nil
}

// LinkDown fails one intact link: the evaluator is rebound onto the
// surviving topology with the weights projected onto it. A failure that
// would strand a positive demand is rejected with the previous state
// restored.
func (en *Engine) LinkDown(link int) error { return en.flipAll([]int{link}, true) }

// LinkUp restores one failed link under its recorded weight. Restoring
// capacity can only improve reachability, so LinkUp of a known link
// only fails if the remaining failures were already unroutable.
func (en *Engine) LinkUp(link int) error { return en.flipAll([]int{link}, false) }

// FailLinks fails a set of intact links as one event: the whole set is
// validated, then the evaluator is rebound once onto the surviving
// topology — the batched form of LinkDown that SRLG groups and dual
// failures apply per variant instead of paying one remap per link. A
// set that would strand a positive demand is rejected with the previous
// state restored. An empty set is a no-op.
func (en *Engine) FailLinks(links ...int) error { return en.flipAll(links, true) }

// RestoreLinks restores a set of failed links under their recorded
// weights as one event — the batched inverse of FailLinks.
func (en *Engine) RestoreLinks(links ...int) error { return en.flipAll(links, false) }

// flipAll toggles a set of links' failure state with one remap,
// rolling back the applied prefix on rejection so a refused event
// leaves the state untouched.
func (en *Engine) flipAll(links []int, toDown bool) error {
	applied := 0
	var err error
	for _, l := range links {
		if err = en.checkLink(l); err != nil {
			break
		}
		if en.down[l] == toDown {
			if toDown {
				err = fmt.Errorf("%w: link %d is already down", ErrBadInput, l)
			} else {
				err = fmt.Errorf("%w: link %d is not down", ErrBadInput, l)
			}
			break
		}
		en.down[l] = toDown
		if toDown {
			en.ndown++
		} else {
			en.ndown--
		}
		applied++
	}
	remapped := false
	if err == nil {
		if applied == 0 {
			return nil
		}
		if err = en.remap(); err == nil {
			return nil
		}
		remapped = true
	}
	for _, l := range links[:applied] {
		en.down[l] = !toDown
		if toDown {
			en.ndown--
		} else {
			en.ndown++
		}
	}
	// Validation failures never touched the evaluator; a failed remap
	// did, so rebind it onto the restored down-set.
	if remapped {
		if rerr := en.remap(); rerr != nil {
			// Cannot happen: the pre-event state evaluated successfully.
			return fmt.Errorf("delta: state restore after rejected event failed: %v (event: %w)", rerr, err)
		}
	}
	return err
}

// remap rebinds the evaluator onto the topology the current down-set
// leaves: the intact graph when nothing is down, graph.WithoutLinks
// otherwise, with the intact weight vector projected onto the
// survivors.
func (en *Engine) remap() error {
	if en.ndown == 0 {
		if err := en.ev.Rebind(en.g, en.w); err != nil {
			return err
		}
		en.keep, en.rev = nil, nil
		return nil
	}
	drop := make([]int, 0, en.ndown)
	for e, d := range en.down {
		if d {
			drop = append(drop, e)
		}
	}
	vg, keep, err := en.g.WithoutLinks(drop...)
	if err != nil {
		return err
	}
	rev := make([]int, en.g.NumLinks())
	for i := range rev {
		rev[i] = -1
	}
	wf := make([]float64, vg.NumLinks())
	for newID, oldID := range keep {
		rev[oldID] = newID
		wf[newID] = en.w[oldID]
	}
	if err := en.ev.Rebind(vg, wf); err != nil {
		return err
	}
	en.keep, en.rev = keep, rev
	return nil
}

// SetDemand updates one demand entry, re-propagating only the affected
// destination (node IDs are failure-invariant, so no remapping).
func (en *Engine) SetDemand(src, dst int, v float64) error {
	return en.ev.SetDemand(src, dst, v)
}

// StepDemands advances to the next demand matrix of a temporal
// sequence, re-propagating only destinations whose columns changed.
// The engine clones m, so the caller keeps ownership.
func (en *Engine) StepDemands(m *traffic.Matrix) error {
	return en.ev.ReplaceDemands(m.Clone())
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
	return en.ev.TryWeightMetrics(s, en.mapLink(link), w)
}

// WhatIfDemand returns the Metrics the engine would report after
// SetDemand(src, dst, v), without committing it.
func (en *Engine) WhatIfDemand(s *Scratch, src, dst int, v float64) (Metrics, error) {
	return en.ev.TryDemand(s, src, dst, v)
}

// WhatIfLinkDown returns the Metrics the engine would report after
// LinkDown(link), without committing it. Unlike the scratch-based
// what-ifs this builds a fresh evaluator on the hypothetical variant —
// a failure invalidates every destination's DAG, so there is no cheaper
// exact answer; expect it to cost as much as the original warm-up.
func (en *Engine) WhatIfLinkDown(link int) (Metrics, error) {
	if err := en.checkLink(link); err != nil {
		return Metrics{}, err
	}
	if en.down[link] {
		return Metrics{}, fmt.Errorf("%w: link %d is already down", ErrBadInput, link)
	}
	return en.variantMetrics(link, -1)
}

// WhatIfLinkUp returns the Metrics the engine would report after
// LinkUp(link), without committing it. Same cost caveat as
// WhatIfLinkDown.
func (en *Engine) WhatIfLinkUp(link int) (Metrics, error) {
	if err := en.checkLink(link); err != nil {
		return Metrics{}, err
	}
	if !en.down[link] {
		return Metrics{}, fmt.Errorf("%w: link %d is not down", ErrBadInput, link)
	}
	return en.variantMetrics(-1, link)
}

// variantMetrics evaluates the hypothetical down-set (the current one
// plus add, minus remove) from scratch and returns its metrics.
func (en *Engine) variantMetrics(add, remove int) (Metrics, error) {
	var drop []int
	for e, d := range en.down {
		if (d && e != remove) || e == add {
			drop = append(drop, e)
		}
	}
	if len(drop) == 0 {
		ev, err := NewEvaluator(en.g, en.ev.tm, en.w)
		if err != nil {
			return Metrics{}, err
		}
		return ev.Metrics(), nil
	}
	vg, keep, err := en.g.WithoutLinks(drop...)
	if err != nil {
		return Metrics{}, err
	}
	wf := make([]float64, vg.NumLinks())
	for newID, oldID := range keep {
		wf[newID] = en.w[oldID]
	}
	ev, err := NewEvaluator(vg, en.ev.tm, wf)
	if err != nil {
		return Metrics{}, err
	}
	return ev.Metrics(), nil
}
