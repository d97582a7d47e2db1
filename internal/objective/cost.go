package objective

import (
	"math"

	"repro/internal/graph"
)

// CostFunc is an increasing convex per-link cost of flow, the common
// shape of traffic-engineering objectives (paper Section II-A). Both the
// (q,beta) family and the Fortz-Thorup baseline implement it, so the
// convex flow solvers can minimize either.
type CostFunc interface {
	// Cost returns Phi(f) for flow f on the given link of capacity c.
	Cost(link int, f, c float64) float64
	// Price returns Phi'(f), the marginal cost used for shortest-path
	// linearization.
	Price(link int, f, c float64) float64
	// Slope returns sum_e dir[e] * Price(e, flow[e]+gamma*dir[e], c_e)
	// over g's links, summed in link order: the derivative at gamma of
	// the total cost along dir, which the Frank-Wolfe line search
	// bisects on. It must equal that per-link loop bit for bit.
	Slope(g *graph.Graph, flow, dir []float64, gamma float64) float64
}

// FortzThorup is the piecewise-linear link cost of Fortz and Thorup
// (INFOCOM'00), a linearized approximation of the M/M/1 delay curve. The
// marginal cost of flow f on a link of capacity c is:
//
//	 1    for f/c in [0, 1/3)
//	 3    for f/c in [1/3, 2/3)
//	10    for f/c in [2/3, 9/10)
//	70    for f/c in [9/10, 1)
//	500   for f/c in [1, 11/10)
//	5000  for f/c >= 11/10
//
// Unlike the (q,beta) barrier costs it permits overload (f > c) at a
// steep but finite price — the "FT" curve of the paper's Fig. 2.
type FortzThorup struct{}

// ftBreaks lists utilization breakpoints and the marginal cost beyond
// each.
var ftBreaks = []struct {
	u     float64
	slope float64
}{
	{u: 0, slope: 1},
	{u: 1.0 / 3.0, slope: 3},
	{u: 2.0 / 3.0, slope: 10},
	{u: 9.0 / 10.0, slope: 70},
	{u: 1.0, slope: 500},
	{u: 11.0 / 10.0, slope: 5000},
}

// Price returns the marginal Fortz-Thorup cost.
func (FortzThorup) Price(_ int, f, c float64) float64 {
	if f < 0 {
		return ftBreaks[0].slope
	}
	u := f / c
	slope := ftBreaks[0].slope
	for _, b := range ftBreaks {
		if u >= b.u {
			slope = b.slope
		}
	}
	return slope
}

// Slope is the per-link Price loop of CostFunc.Slope.
func (ft FortzThorup) Slope(g *graph.Graph, flow, dir []float64, gamma float64) float64 {
	var d float64
	for e, de := range dir {
		d += de * ft.Price(e, flow[e]+gamma*de, g.Link(e).Cap)
	}
	return d
}

// Cost integrates the piecewise-constant marginal cost from 0 to f.
func (FortzThorup) Cost(_ int, f, c float64) float64 {
	if f <= 0 {
		return 0
	}
	var total float64
	for i, b := range ftBreaks {
		lo := b.u * c
		hi := math.Inf(1)
		if i+1 < len(ftBreaks) {
			hi = ftBreaks[i+1].u * c
		}
		if f <= lo {
			break
		}
		seg := math.Min(f, hi) - lo
		total += seg * b.slope
	}
	return total
}

var _ CostFunc = FortzThorup{}
var _ CostFunc = (*QBeta)(nil)
