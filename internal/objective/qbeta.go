// Package objective implements the paper's load-balance objectives: the
// generic (q, beta) proportional load balance utility family (Section
// II-B, Eq. 11), the induced link-cost functions, the Fortz-Thorup
// piecewise-linear cost used as a baseline, and the evaluation metrics
// (MLU, link utilizations, the normalized utility of Fig. 10).
package objective

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
)

// ErrBadObjective reports invalid objective parameters.
var ErrBadObjective = errors.New("objective: bad parameters")

// QBeta is the (q, beta) proportional load balance objective: each link
// has a concave utility of its spare capacity s = c - f,
//
//	V(s) = q * log s           (beta = 1)
//	V(s) = q * s^(1-beta)/(1-beta)   (beta != 1),
//
// the paper's Eq. (11). beta = 0 is minimum total load (min-hop routing
// when q = 1), beta = 1 is proportional load balance (M/M/1 delay
// weights), beta -> infinity approaches min-max load balance.
type QBeta struct {
	beta float64
	q    []float64
}

// NewQBeta builds the objective for a network with the given number of
// links. q supplies the per-link coefficients; nil means q = 1 for every
// link. beta must be >= 0 and finite; every q entry must be positive.
func NewQBeta(beta float64, links int, q []float64) (*QBeta, error) {
	if beta < 0 || math.IsNaN(beta) || math.IsInf(beta, 0) {
		return nil, fmt.Errorf("%w: beta = %v", ErrBadObjective, beta)
	}
	if links <= 0 {
		return nil, fmt.Errorf("%w: %d links", ErrBadObjective, links)
	}
	o := &QBeta{beta: beta, q: make([]float64, links)}
	if q == nil {
		for i := range o.q {
			o.q[i] = 1
		}
		return o, nil
	}
	if len(q) != links {
		return nil, fmt.Errorf("%w: got %d q entries for %d links", ErrBadObjective, len(q), links)
	}
	for i, v := range q {
		if !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: q[%d] = %v", ErrBadObjective, i, v)
		}
		o.q[i] = v
	}
	return o, nil
}

// MustQBeta is NewQBeta for statically-correct parameters; it panics on
// error and exists for tests and package-internal constants.
func MustQBeta(beta float64, links int, q []float64) *QBeta {
	o, err := NewQBeta(beta, links, q)
	if err != nil {
		panic(err)
	}
	return o
}

// Beta returns the load-balance exponent.
func (o *QBeta) Beta() float64 { return o.beta }

// Q returns the q coefficient of the given link.
func (o *QBeta) Q(link int) float64 { return o.q[link] }

// Links returns the number of links the objective covers.
func (o *QBeta) Links() int { return len(o.q) }

// V returns the utility of spare capacity s on the given link. For
// beta >= 1 the utility tends to -Inf as s -> 0 (the barrier that keeps
// optimal flows strictly inside capacity).
func (o *QBeta) V(link int, s float64) float64 {
	q := o.q[link]
	switch {
	case s < 0:
		return math.Inf(-1)
	case o.beta == 1:
		return q * math.Log(s)
	default:
		if s == 0 && o.beta > 1 {
			return math.Inf(-1)
		}
		return q * math.Pow(s, 1-o.beta) / (1 - o.beta)
	}
}

// Vp returns V'(s) = q / s^beta, the marginal utility of spare capacity.
// This is exactly the first link weight at optimum (Theorem 3.1).
func (o *QBeta) Vp(link int, s float64) float64 {
	q := o.q[link]
	switch {
	case o.beta == 0:
		return q
	case o.beta == 1:
		return vpBeta1(q, s)
	case s <= 0:
		return math.Inf(1)
	}
	return q / math.Pow(s, o.beta)
}

// vpBeta1 is Vp for beta = 1: q/s, or +Inf for s <= 0. It equals
// q/math.Pow(s, 1) bit for bit because math.Pow(s, 1) returns s, and
// unlike Vp it is small enough to inline.
func vpBeta1(q, s float64) float64 {
	if s <= 0 {
		return math.Inf(1)
	}
	return q / s
}

// LinkSpare solves the paper's per-link subproblem Link_ij(V; w) bounded
// by the physical capacity:
//
//	maximize V(s) - w*s   subject to 0 <= s <= cap,
//
// which Algorithm 1 evaluates at every iteration. For beta > 0 the
// unconstrained maximizer is s = (q/w)^(1/beta), clipped to [0, cap];
// for beta = 0 the objective is linear in s, so the maximizer is cap
// when w <= q and 0 otherwise.
func (o *QBeta) LinkSpare(link int, w, capacity float64) float64 {
	q := o.q[link]
	if w <= 0 {
		return capacity // V is increasing, no price: take all spare
	}
	if o.beta == 0 {
		if w <= q {
			return capacity
		}
		return 0
	}
	s := math.Pow(q/w, 1/o.beta)
	return math.Min(s, capacity)
}

// Cost returns the induced link-cost function
//
//	Phi(f) = V(c) - V(c-f) = integral_0^f q/(c-u)^beta du,
//
// the increasing convex cost whose minimization over the flow polytope is
// equivalent to maximizing aggregate utility. Flow beyond capacity costs
// +Inf for every beta; flow exactly at capacity additionally costs +Inf
// when beta >= 1 (the log/power barrier), keeping optimal flows strictly
// interior.
func (o *QBeta) Cost(link int, f, capacity float64) float64 {
	if f < 0 || f > capacity || (f == capacity && o.beta >= 1) {
		return math.Inf(1)
	}
	return o.V(link, capacity) - o.V(link, capacity-f)
}

// Price returns Phi'(f) = q/(c-f)^beta, the marginal cost of flow (the
// shadow price / first link weight when evaluated at the optimum).
func (o *QBeta) Price(link int, f, capacity float64) float64 {
	return o.Vp(link, capacity-f)
}

// Slope implements CostFunc.Slope with Vp's terms. For beta = 1 the
// loop calls vpBeta1 directly, so the term inlines; a call to Vp per
// link made the ladder benchmark's line search measurably slower.
func (o *QBeta) Slope(g *graph.Graph, flow, dir []float64, gamma float64) float64 {
	var d float64
	if o.beta == 1 {
		for e, de := range dir {
			d += de * vpBeta1(o.q[e], g.Link(e).Cap-(flow[e]+gamma*de))
		}
		return d
	}
	for e, de := range dir {
		d += de * o.Vp(e, g.Link(e).Cap-(flow[e]+gamma*de))
	}
	return d
}
