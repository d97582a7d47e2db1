package lp

import (
	"errors"
	"math"
)

// This file keeps the package's former dense two-phase tableau simplex
// as a test oracle: an independent implementation (artificial
// variables, explicit tableau rows) that the property tests solve every
// generated problem with, to cross-check the sparse solver's status and
// optimal value.

// rel is a dense constraint relation.
type rel int

const (
	relLE rel = iota + 1 // a.x <= b
	relEQ                // a.x == b
	relGE                // a.x >= b
)

// denseCon is one dense constraint (missing trailing coefficients are 0).
type denseCon struct {
	Coeffs []float64
	Rel    rel
	RHS    float64
}

// denseProblem is a linear program over NumVars nonnegative variables.
type denseProblem struct {
	NumVars int
	Obj     []float64 // minimization objective, length NumVars
	Cons    []denseCon
}

func newDenseProblem(n int) *denseProblem {
	return &denseProblem{NumVars: n, Obj: make([]float64, n)}
}

func (p *denseProblem) add(coeffs []float64, r rel, rhs float64) {
	p.Cons = append(p.Cons, denseCon{Coeffs: coeffs, Rel: r, RHS: rhs})
}

// denseStatus is the oracle's outcome.
type denseStatus int

const (
	statusOptimal denseStatus = iota + 1
	statusInfeasible
	statusUnbounded
)

func (s denseStatus) String() string {
	return [...]string{"", "optimal", "infeasible", "unbounded"}[s]
}

// denseResult is the oracle's output; X and Obj are meaningful only when
// Status is statusOptimal.
type denseResult struct {
	Status denseStatus
	X      []float64
	Obj    float64
}

const denseEps = 1e-9

// tableau is the dense simplex tableau: rows are constraints, columns are
// structural + slack/surplus + artificial variables, with the right-hand
// side kept separately.
type tableau struct {
	m, n  int // rows, total columns
	a     [][]float64
	b     []float64
	basis []int // basis[i] = column basic in row i
	nArt  int   // number of artificial columns (last nArt columns)
}

// denseSolve runs two-phase primal simplex on the problem.
func denseSolve(p *denseProblem) (*denseResult, error) {
	t := build(p)
	// Phase 1: minimize the sum of artificial variables.
	if t.nArt > 0 {
		phase1 := make([]float64, t.n)
		for j := t.n - t.nArt; j < t.n; j++ {
			phase1[j] = 1
		}
		status, val := t.run(phase1)
		if status == statusUnbounded {
			return nil, errors.New("lp: phase 1 unbounded (internal error)")
		}
		if val > 1e-7 {
			return &denseResult{Status: statusInfeasible}, nil
		}
		t.driveOutArtificials()
	}
	// Phase 2: minimize the real objective (artificial columns frozen).
	obj := make([]float64, t.n)
	copy(obj, p.Obj)
	status, _ := t.run(obj)
	if status == statusUnbounded {
		return &denseResult{Status: statusUnbounded}, nil
	}
	x := make([]float64, p.NumVars)
	for i, col := range t.basis {
		if col < p.NumVars {
			x[col] = t.b[i]
		}
	}
	var objVal float64
	for j, c := range p.Obj {
		objVal += c * x[j]
	}
	return &denseResult{Status: statusOptimal, X: x, Obj: objVal}, nil
}

// build converts the problem into a canonical tableau with slack,
// surplus, and artificial columns and an initial basic feasible basis.
func build(p *denseProblem) *tableau {
	m := len(p.Cons)
	// Count extra columns.
	var nSlack, nArt int
	for _, c := range p.Cons {
		r := c.Rel
		if c.RHS < 0 {
			r = flip(r)
		}
		switch r {
		case relLE:
			nSlack++
		case relGE:
			nSlack++
			nArt++
		case relEQ:
			nArt++
		}
	}
	n := p.NumVars + nSlack + nArt
	t := &tableau{
		m:     m,
		n:     n,
		a:     make([][]float64, m),
		b:     make([]float64, m),
		basis: make([]int, m),
		nArt:  nArt,
	}
	slackCol := p.NumVars
	artCol := p.NumVars + nSlack
	for i, c := range p.Cons {
		row := make([]float64, n)
		sign := 1.0
		r := c.Rel
		if c.RHS < 0 {
			sign = -1
			r = flip(r)
		}
		for j, v := range c.Coeffs {
			row[j] = sign * v
		}
		t.b[i] = sign * c.RHS
		switch r {
		case relLE:
			row[slackCol] = 1
			t.basis[i] = slackCol
			slackCol++
		case relGE:
			row[slackCol] = -1
			slackCol++
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		case relEQ:
			row[artCol] = 1
			t.basis[i] = artCol
			artCol++
		}
		t.a[i] = row
	}
	return t
}

func flip(r rel) rel {
	switch r {
	case relLE:
		return relGE
	case relGE:
		return relLE
	default:
		return relEQ
	}
}

// run minimizes obj over the current tableau, returning the status and
// the achieved objective value. Artificial columns are never re-entered
// once phase 1 completes (enforced by the caller zeroing their cost and
// driveOutArtificials removing them from the basis).
func (t *tableau) run(obj []float64) (denseStatus, float64) {
	// Reduced costs: z_j = obj_j - sum_i y_i a_ij with y from the basis.
	// Maintain them implicitly by recomputing the objective row once and
	// updating it during pivots (standard tableau form).
	z := make([]float64, t.n)
	copy(z, obj)
	var val float64
	for i, col := range t.basis {
		if c := obj[col]; c != 0 {
			for j := 0; j < t.n; j++ {
				z[j] -= c * t.a[i][j]
			}
			val += c * t.b[i]
		}
	}
	budget := maxPivotMult * (t.m + t.n)
	blandAfter := budget / 2
	for iter := 0; iter < budget; iter++ {
		// Pricing: Dantzig (most negative reduced cost), switching to
		// Bland's rule (first negative) after a while to break cycles.
		enter := -1
		if iter < blandAfter {
			best := -denseEps
			for j := 0; j < t.n; j++ {
				if z[j] < best {
					best = z[j]
					enter = j
				}
			}
		} else {
			for j := 0; j < t.n; j++ {
				if z[j] < -denseEps {
					enter = j
					break
				}
			}
		}
		if enter < 0 {
			return statusOptimal, val
		}
		// Ratio test (Bland ties on the leaving row's basic column).
		leave := -1
		bestRatio := math.Inf(1)
		for i := 0; i < t.m; i++ {
			if t.a[i][enter] > denseEps {
				ratio := t.b[i] / t.a[i][enter]
				if ratio < bestRatio-denseEps || (ratio < bestRatio+denseEps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					bestRatio = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return statusUnbounded, math.Inf(-1)
		}
		val += z[enter] * bestRatio
		t.pivot(leave, enter, z)
	}
	// Pivot budget exhausted: report the current (feasible) point as
	// optimal-so-far; with Bland's rule this should not happen.
	return statusOptimal, val
}

// pivot performs a standard tableau pivot making column enter basic in
// row leave, updating the reduced-cost row z alongside.
func (t *tableau) pivot(leave, enter int, z []float64) {
	piv := t.a[leave][enter]
	invPiv := 1 / piv
	rowL := t.a[leave]
	for j := 0; j < t.n; j++ {
		rowL[j] *= invPiv
	}
	t.b[leave] *= invPiv
	rowL[enter] = 1 // exact
	for i := 0; i < t.m; i++ {
		if i == leave {
			continue
		}
		factor := t.a[i][enter]
		if factor == 0 {
			continue
		}
		rowI := t.a[i]
		for j := 0; j < t.n; j++ {
			rowI[j] -= factor * rowL[j]
		}
		rowI[enter] = 0 // exact
		t.b[i] -= factor * t.b[leave]
		if t.b[i] < 0 && t.b[i] > -1e-11 {
			t.b[i] = 0
		}
	}
	if factor := z[enter]; factor != 0 {
		for j := 0; j < t.n; j++ {
			z[j] -= factor * rowL[j]
		}
		z[enter] = 0
	}
	t.basis[leave] = enter
}

// driveOutArtificials removes any artificial variable still basic at a
// zero level after phase 1, pivoting in a structural column when
// possible; rows with no eligible pivot are redundant and harmless.
func (t *tableau) driveOutArtificials() {
	firstArt := t.n - t.nArt
	for i := 0; i < t.m; i++ {
		if t.basis[i] < firstArt {
			continue
		}
		for j := 0; j < firstArt; j++ {
			if math.Abs(t.a[i][j]) > 1e-7 {
				z := make([]float64, t.n) // costs irrelevant for a degenerate pivot
				t.pivot(i, j, z)
				break
			}
		}
	}
	// Freeze all artificial columns so phase 2 can never re-enter them.
	for i := 0; i < t.m; i++ {
		for j := firstArt; j < t.n; j++ {
			t.a[i][j] = 0
		}
	}
	// If an artificial is still basic (redundant row), its value is 0 and
	// its frozen column keeps it inert.
}
