package explicit

import (
	"context"
	"fmt"

	"repro/internal/mcf"
	"repro/internal/traffic"
)

// SRResult is the output of TwoSegmentOpt.
type SRResult struct {
	// Flow is the final routing, assembled in demand order.
	Flow *mcf.Flow
	// MLU is Flow's maximum link utilization.
	MLU float64
	// Midpoint[i] is the detour midpoint of tm.Demands()[i], -1 when the
	// demand stays on its direct shortest paths.
	Midpoint []int
	// Detoured counts demands routed through a midpoint.
	Detoured int
	// Passes is the number of greedy sweeps performed.
	Passes int
	// Screened counts candidate evaluations the bottleneck-support
	// screen pruned.
	Screened int
}

// SROptions configures TwoSegmentOpt.
type SROptions struct {
	// Segments is the maximum number of shortest-path legs per demand
	// (1 or 2).
	Segments int
	// unscreened turns the bottleneck-support screen off; only the test
	// pinning the screen's exactness sets it, as its reference.
	unscreened bool
}

// relEps is the relative improvement a candidate must beat the incumbent
// by. It only has to dominate float drift in the utilization arithmetic,
// so ties (and sub-noise differences) keep the incumbent — that is what
// makes the greedy terminate and prefer direct routing.
const relEps = 1e-12

// maxPasses bounds the greedy sweeps of TwoSegmentOpt.
const maxPasses = 4

// TwoSegmentOpt greedily routes each demand of tm through at most
// opts.Segments ECMP-shortest-path legs under the weights baked into
// uf: one segment keeps every demand on its direct shortest paths; two
// may detour a demand through one midpoint m (s -> m, then m -> t),
// choosing per demand the midpoint that minimizes the network's maximum
// link utilization given all other demands' current routes. Sweeps
// repeat in fixed demand order until a sweep changes nothing or
// maxPasses is reached.
//
// Starting from the all-direct routing and accepting only strict
// improvements makes the result's MLU at most the direct (OSPF) MLU —
// the ladder inequality the property tests pin.
//
// The sweep prunes with the bottleneck-support screen: before scoring a
// candidate, its legs' unit-flow supports are tested against the set of
// links already at or above the incumbent's utilization on background
// load alone — a candidate touching one can only raise that link
// further, so it is pruned without the per-link evaluation. The screen
// is exact (float addition of nonnegative flow and division by a
// positive capacity are monotone, and acceptance requires strict
// improvement), so the routing is the one the unscreened sweep finds.
func TwoSegmentOpt(ctx context.Context, uf *UnitFlows, tm *traffic.Matrix, opts SROptions) (*SRResult, error) {
	segments := opts.Segments
	if segments != 1 && segments != 2 {
		return nil, fmt.Errorf("%w: segments=%d must be 1 or 2", ErrBadInput, segments)
	}
	if err := uf.CheckRoutable(tm); err != nil {
		return nil, err
	}
	g := uf.g
	n, m := g.NumNodes(), g.NumLinks()
	dems := tm.Demands()
	res := &SRResult{Midpoint: make([]int, len(dems))}
	for i := range res.Midpoint {
		res.Midpoint[i] = -1
	}

	caps := make([]float64, m)
	for e := 0; e < m; e++ {
		caps[e] = g.Link(e).Cap
	}
	// load is the current aggregate flow; base is load minus the demand
	// being re-decided (so every candidate is evaluated against the same
	// background).
	load := make([]float64, m)
	base := make([]float64, m)
	for _, d := range dems {
		axpy(load, d.Volume, uf.Unit(d.Src, d.Dst))
	}

	// utilWith evaluates max_e (base[e] + vol*(v1[e]+v2[e])) / caps[e];
	// v2 nil means a single leg.
	utilWith := func(vol float64, v1, v2 []float64) float64 {
		var mlu float64
		if v2 == nil {
			for e := 0; e < m; e++ {
				if u := (base[e] + vol*v1[e]) / caps[e]; u > mlu {
					mlu = u
				}
			}
			return mlu
		}
		for e := 0; e < m; e++ {
			if u := (base[e] + vol*(v1[e]+v2[e])) / caps[e]; u > mlu {
				mlu = u
			}
		}
		return mlu
	}
	legs := func(i int) ([]float64, []float64) {
		d := dems[i]
		if mid := res.Midpoint[i]; mid >= 0 {
			return uf.Unit(d.Src, mid), uf.Unit(mid, d.Dst)
		}
		return uf.Unit(d.Src, d.Dst), nil
	}

	// hot is the screen's bitset of links whose background utilization
	// base[e]/caps[e] already reaches the incumbent's value: any
	// candidate putting flow on one cannot strictly improve, so its
	// evaluation is skipped. Rebuilt per demand (base changes each time).
	var hot []uint64
	if !opts.unscreened {
		hot = make([]uint64, (m+63)/64)
	}

	if segments == 2 {
		for res.Passes < maxPasses {
			res.Passes++
			changed := false
			for i, d := range dems {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				v1, v2 := legs(i)
				for e := 0; e < m; e++ {
					if v2 == nil {
						base[e] = load[e] - d.Volume*v1[e]
					} else {
						base[e] = load[e] - d.Volume*(v1[e]+v2[e])
					}
				}
				// Candidates in fixed order — incumbent first, then direct,
				// then midpoints ascending — each accepted only on strict
				// improvement, so ties keep the incumbent (and the incumbent
				// loses to direct before any midpoint).
				bestVal := utilWith(d.Volume, v1, v2)
				best := res.Midpoint[i]
				if hot != nil {
					// A link already at the incumbent's utilization on
					// background load alone disqualifies every candidate
					// touching it. Built from the incumbent's bestVal; later
					// improvements only shrink the threshold the set
					// understates, so pruning stays sound.
					for w := range hot {
						hot[w] = 0
					}
					thr := bestVal * (1 - relEps)
					for e := 0; e < m; e++ {
						if base[e]/caps[e] >= thr {
							hot[e/64] |= 1 << (e % 64)
						}
					}
				}
				if best >= 0 {
					if hot != nil && overlaps(uf.Support(d.Src, d.Dst), hot) {
						res.Screened++
					} else if v := utilWith(d.Volume, uf.Unit(d.Src, d.Dst), nil); v < bestVal*(1-relEps) {
						bestVal, best = v, -1
					}
				}
				for mid := 0; mid < n; mid++ {
					if mid == d.Src || mid == d.Dst || mid == res.Midpoint[i] {
						continue
					}
					c1, c2 := uf.Unit(d.Src, mid), uf.Unit(mid, d.Dst)
					if c1 == nil || c2 == nil {
						continue
					}
					if hot != nil && (overlaps(uf.Support(d.Src, mid), hot) || overlaps(uf.Support(mid, d.Dst), hot)) {
						res.Screened++
						continue
					}
					if v := utilWith(d.Volume, c1, c2); v < bestVal*(1-relEps) {
						bestVal, best = v, mid
					}
				}
				if best != res.Midpoint[i] {
					res.Midpoint[i] = best
					v1, v2 = legs(i)
					for e := 0; e < m; e++ {
						if v2 == nil {
							load[e] = base[e] + d.Volume*v1[e]
						} else {
							load[e] = base[e] + d.Volume*(v1[e]+v2[e])
						}
					}
					changed = true
				}
			}
			if !changed {
				break
			}
		}
	}

	// Rebuild the final flow from scratch in demand order: bitwise
	// reproducible, and when no detour was accepted it is exactly
	// DirectFlow's arithmetic.
	f := mcf.NewFlow(g, tm.Destinations())
	for i, d := range dems {
		v1, v2 := legs(i)
		axpy(f.PerDest[d.Dst], d.Volume, v1)
		if v2 != nil {
			axpy(f.PerDest[d.Dst], d.Volume, v2)
			res.Detoured++
		}
	}
	f.RecomputeTotal()
	res.Flow = f
	res.MLU = MaxUtil(g, f.Total)
	return res, nil
}
