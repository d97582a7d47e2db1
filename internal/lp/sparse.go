package lp

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrBadProblem reports a malformed linear program.
var ErrBadProblem = errors.New("lp: bad problem")

// Typed solver outcomes, so callers can branch with errors.Is instead of
// matching on error text.
var (
	// ErrInfeasible reports that no point satisfies every row.
	ErrInfeasible = errors.New("lp: infeasible")
	// ErrUnbounded reports that the objective decreases without bound.
	ErrUnbounded = errors.New("lp: unbounded")
)

// Solver tolerances and budgets. The pivot tolerance is looser than the
// others because an accepted pivot element divides a whole basis-inverse
// row.
const (
	spxRcTol     = 1e-9 // reduced cost must beat this to enter
	spxFeasTol   = 1e-9 // basic values below -spxFeasTol are infeasible
	spxPivTol    = 1e-8 // smallest acceptable pivot element
	spxRefactor  = 512  // pivots between basis refactorizations
	maxPivotMult = 200  // pivot budget per phase = maxPivotMult * (rows + cols + 1)
)

// SparseProblem is a linear program in computational standard form
//
//	minimize    c . x
//	subject to  a_i . x <= b_i   for every <= row i
//	            a_i . x  = b_i   for every equality row i
//	            x >= 0,
//
// stored column-major and sparse: rows are declared up front (or
// appended later), columns carry only their nonzero entries, packed
// into one compressed-column store. Both rows and columns are
// append-only, which is what lets a SparseSolver keep its factorization
// valid while a column-generation loop grows the problem between
// solves.
type SparseProblem struct {
	rhs []float64 // per row
	eq  []bool    // per row: an equality row (its slack is fixed at zero)
	obj []float64 // per column
	// Column j's nonzeros are ind[start[j]:start[j+1]] (row indices,
	// strictly increasing) with values val[start[j]:start[j+1]].
	start []int
	ind   []int
	val   []float64
}

// NewSparseProblem returns an empty problem with no rows or columns.
func NewSparseProblem() *SparseProblem { return &SparseProblem{} }

// NumRows returns the current row count.
func (p *SparseProblem) NumRows() int { return len(p.rhs) }

// NumCols returns the current structural-column count.
func (p *SparseProblem) NumCols() int { return len(p.obj) }

// col returns column j's row indices and values.
func (p *SparseProblem) col(j int) ([]int, []float64) {
	lo, hi := p.start[j], p.start[j+1]
	return p.ind[lo:hi], p.val[lo:hi]
}

// AddRow appends the row  (new row) . x <= rhs  and returns its index.
// The row starts empty: only columns added afterwards may have entries
// in it, which keeps every already-factorized basis valid.
func (p *SparseProblem) AddRow(rhs float64) (int, error) { return p.addRow(rhs, false) }

// AddEqRow appends the equality row  (new row) . x = rhs  and returns
// its index; like AddRow, it starts empty.
func (p *SparseProblem) AddEqRow(rhs float64) (int, error) { return p.addRow(rhs, true) }

func (p *SparseProblem) addRow(rhs float64, eq bool) (int, error) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		return 0, fmt.Errorf("%w: row rhs = %v", ErrBadProblem, rhs)
	}
	p.rhs = append(p.rhs, rhs)
	p.eq = append(p.eq, eq)
	return len(p.rhs) - 1, nil
}

// AddColumn appends a structural variable with objective coefficient obj
// and sparse constraint entries vals at row indices rows, returning its
// column index. Row indices must be in range and strictly increasing.
func (p *SparseProblem) AddColumn(obj float64, rows []int, vals []float64) (int, error) {
	if math.IsNaN(obj) || math.IsInf(obj, 0) {
		return 0, fmt.Errorf("%w: objective coefficient %v", ErrBadProblem, obj)
	}
	if len(rows) != len(vals) {
		return 0, fmt.Errorf("%w: column has %d row indices for %d values", ErrBadProblem, len(rows), len(vals))
	}
	for t, r := range rows {
		if r < 0 || r >= len(p.rhs) {
			return 0, fmt.Errorf("%w: column entry row %d out of range [0, %d)", ErrBadProblem, r, len(p.rhs))
		}
		if t > 0 && rows[t-1] >= r {
			return 0, fmt.Errorf("%w: column row indices not strictly increasing at %d", ErrBadProblem, t)
		}
		if v := vals[t]; math.IsNaN(v) || math.IsInf(v, 0) {
			return 0, fmt.Errorf("%w: column entry value %v at row %d", ErrBadProblem, v, r)
		}
	}
	if p.start == nil {
		p.start = []int{0} // column 0 starts at offset 0
	}
	p.obj = append(p.obj, obj)
	p.ind = append(p.ind, rows...)
	p.val = append(p.val, vals...)
	p.start = append(p.start, len(p.ind))
	return len(p.obj) - 1, nil
}

// SparseResult is the output of SparseSolver.Solve.
type SparseResult struct {
	// X is the optimal structural solution (length NumCols).
	X []float64
	// Obj is the optimal objective value.
	Obj float64
	// Y holds the row duals (length NumRows): y = cB . B^-1, the simplex
	// multipliers. For a minimization, Y[i] <= 0 on every <= row at
	// optimality (up to tolerance); an equality row's dual may have
	// either sign. A column's reduced cost is c_j - sum_i Y[i] a_ij,
	// which is what a column-generation pricing step evaluates for
	// candidate columns.
	Y []float64
	// Pivots is the number of simplex pivots this Solve performed.
	Pivots int
}

// SparseSolver solves a SparseProblem by revised primal simplex with a
// dense product-form basis inverse. The solver remembers its basis
// between Solve calls: after the caller appends columns (and rows) the
// next Solve warm-starts from the previous optimal basis — appended
// columns enter nonbasic, appended rows enter on their slack — so a
// column-generation master pays only for the pivots the new columns
// actually cause. A SparseSolver is NOT safe for concurrent use.
type SparseSolver struct {
	p       *SparseProblem
	m       int       // rows covered by the factorization
	basis   []int     // basis[i]: structural j >= 0, or slack of row r encoded -(r+1)
	inBasis []int     // structural j -> its basis row, -1 when nonbasic
	binv    []float64 // m*m row-major basis inverse
	xb      []float64 // basic values, aligned with basis
	pivots  int       // pivots since the last refactorization
	reset   bool      // a singular refactorization fell back to the slack basis
	d       []float64 // scratch: B^-1 * entering column
	y       []float64 // scratch: duals
	cb      []float64 // scratch: basic costs
	slackAt []int     // scratch: row r -> basis position of its slack, -1
}

// NewSparseSolver returns a solver bound to p, starting from the
// all-slack basis.
func NewSparseSolver(p *SparseProblem) *SparseSolver {
	return &SparseSolver{p: p}
}

// sync grows the factorization to cover rows and columns appended since
// the last Solve: each new row enters on its slack, extending B^-1 by an
// identity row and column — exact, because appended rows have no entries
// in previously added (hence possibly basic) columns.
func (s *SparseSolver) sync() {
	p := s.p
	s.inBasis = slices.Grow(s.inBasis, p.NumCols()-len(s.inBasis))
	for len(s.inBasis) < p.NumCols() {
		s.inBasis = append(s.inBasis, -1)
	}
	if p.NumRows() == s.m {
		return
	}
	old := s.m
	s.m = p.NumRows()
	s.basis = slices.Grow(s.basis, s.m-old)
	s.xb = slices.Grow(s.xb, s.m-old)
	binv := make([]float64, s.m*s.m)
	for i := 0; i < old; i++ {
		copy(binv[i*s.m:i*s.m+old], s.binv[i*old:(i+1)*old])
	}
	s.binv = binv
	for i := old; i < s.m; i++ {
		s.binv[i*s.m+i] = 1
		s.basis = append(s.basis, -(i + 1))
		s.xb = append(s.xb, p.rhs[i])
	}
}

// refactorize rebuilds B^-1 from the basis by Gauss-Jordan elimination
// with partial pivoting, clearing accumulated product-form drift, and
// recomputes the basic values. A numerically singular basis falls back
// to the all-slack basis and sets s.reset so Solve restarts its phases.
func (s *SparseSolver) refactorize() {
	m := s.m
	b := make([]float64, m*m) // B, row-major; reduced in place
	for j, ref := range s.basis {
		if ref < 0 {
			b[(-ref-1)*m+j] = 1
			continue
		}
		rows, vals := s.p.col(ref)
		for t, r := range rows {
			b[r*m+j] = vals[t]
		}
	}
	inv := make([]float64, m*m)
	for i := 0; i < m; i++ {
		inv[i*m+i] = 1
	}
	singular := false
	for col := 0; col < m; col++ {
		piv, pivAbs := -1, spxPivTol
		for i := col; i < m; i++ {
			if a := math.Abs(b[i*m+col]); a > pivAbs {
				piv, pivAbs = i, a
			}
		}
		if piv < 0 {
			singular = true
			break
		}
		if piv != col {
			swapRow(b, m, piv, col)
			swapRow(inv, m, piv, col)
		}
		f := 1 / b[col*m+col]
		for t := 0; t < m; t++ {
			b[col*m+t] *= f
			inv[col*m+t] *= f
		}
		for i := 0; i < m; i++ {
			if i == col {
				continue
			}
			g := b[i*m+col]
			if g == 0 {
				continue
			}
			for t := 0; t < m; t++ {
				b[i*m+t] -= g * b[col*m+t]
				inv[i*m+t] -= g * inv[col*m+t]
			}
		}
	}
	if singular {
		for j := range s.inBasis {
			s.inBasis[j] = -1
		}
		for i := range inv {
			inv[i] = 0
		}
		for i := 0; i < m; i++ {
			s.basis[i] = -(i + 1)
			inv[i*m+i] = 1
		}
		s.reset = true
	}
	s.binv = inv
	s.computeXB()
	s.pivots = 0
}

func swapRow(a []float64, m, i, j int) {
	ri, rj := a[i*m:(i+1)*m], a[j*m:(j+1)*m]
	for t := range ri {
		ri[t], rj[t] = rj[t], ri[t]
	}
}

// computeXB recomputes the basic values xb = B^-1 b.
func (s *SparseSolver) computeXB() {
	m := s.m
	if cap(s.xb) < m {
		s.xb = make([]float64, m)
	}
	s.xb = s.xb[:m]
	for i := 0; i < m; i++ {
		var v float64
		row := s.binv[i*m : (i+1)*m]
		for r, rhs := range s.p.rhs {
			if rhs != 0 {
				v += row[r] * rhs
			}
		}
		s.xb[i] = v
	}
}

// direction computes d = B^-1 a_ref into s.d for a structural column
// (ref >= 0) or a slack (ref = -(row+1)).
func (s *SparseSolver) direction(ref int) {
	m := s.m
	if cap(s.d) < m {
		s.d = make([]float64, m)
	}
	s.d = s.d[:m]
	for i := range s.d {
		s.d[i] = 0
	}
	if ref < 0 {
		r := -ref - 1
		for i := 0; i < m; i++ {
			s.d[i] = s.binv[i*m+r]
		}
		return
	}
	rows, vals := s.p.col(ref)
	for t, r := range rows {
		v := vals[t]
		for i := 0; i < m; i++ {
			s.d[i] += s.binv[i*m+r] * v
		}
	}
}

// duals computes y = cB . B^-1 into s.y, exploiting that most basic
// costs are zero (in the column-generation master only the MLU variable
// carries cost).
func (s *SparseSolver) duals(cb []float64) {
	m := s.m
	if cap(s.y) < m {
		s.y = make([]float64, m)
	}
	s.y = s.y[:m]
	for i := range s.y {
		s.y[i] = 0
	}
	for r, c := range cb {
		if c == 0 {
			continue
		}
		row := s.binv[r*m : (r+1)*m]
		for i := 0; i < m; i++ {
			s.y[i] += c * row[i]
		}
	}
}

// reducedCost prices one column (structural or slack) against s.y. In
// phase 1 structural objective coefficients are ignored (the composite
// objective is pure infeasibility).
func (s *SparseSolver) reducedCost(ref int, phase1 bool) float64 {
	if ref < 0 {
		return -s.y[-ref-1]
	}
	rc := 0.0
	if !phase1 {
		rc = s.p.obj[ref]
	}
	rows, vals := s.p.col(ref)
	for t, r := range rows {
		rc -= s.y[r] * vals[t]
	}
	return rc
}

// basicCosts fills s.cb with the cost of each basic variable: the real
// objective in phase 2, or the composite infeasibility costs in phase 1
// (-1 on rows currently below zero, +1 on equality slacks above zero).
func (s *SparseSolver) basicCosts(phase1 bool) []float64 {
	if cap(s.cb) < s.m {
		s.cb = make([]float64, s.m)
	}
	s.cb = s.cb[:s.m]
	for i, ref := range s.basis {
		switch {
		case phase1 && s.xb[i] < -spxFeasTol:
			s.cb[i] = -1
		case phase1 && s.xb[i] > spxFeasTol && s.eqSlack(ref):
			s.cb[i] = 1
		case phase1 || ref < 0:
			s.cb[i] = 0
		default:
			s.cb[i] = s.p.obj[ref]
		}
	}
	return s.cb
}

// pivot makes ref basic in row leave, updating B^-1 and xb in product
// form (the direction s.d must already hold B^-1 a_ref).
func (s *SparseSolver) pivot(leave, ref int) {
	m := s.m
	inv := 1 / s.d[leave]
	rowL := s.binv[leave*m : (leave+1)*m]
	for t := range rowL {
		rowL[t] *= inv
	}
	s.xb[leave] *= inv
	for i := 0; i < m; i++ {
		if i == leave {
			continue
		}
		f := s.d[i]
		if f == 0 {
			continue
		}
		rowI := s.binv[i*m : (i+1)*m]
		for t := range rowI {
			rowI[t] -= f * rowL[t]
		}
		s.xb[i] -= f * s.xb[leave]
		if s.xb[i] < 0 && s.xb[i] > -1e-11 {
			s.xb[i] = 0
		}
	}
	if old := s.basis[leave]; old >= 0 {
		s.inBasis[old] = -1
	}
	s.basis[leave] = ref
	if ref >= 0 {
		s.inBasis[ref] = leave
	}
	s.pivots++
	if s.pivots >= spxRefactor {
		s.refactorize()
	}
}

// eqSlack reports whether ref is the slack of an equality row: a
// variable fixed at zero that may leave the basis but never enter it.
func (s *SparseSolver) eqSlack(ref int) bool { return ref < 0 && s.p.eq[-ref-1] }

// bland returns the fixed Bland ordering of a reference: structural
// columns first by index, then slacks by row. The ordering is stable
// within one Solve call, which is all Bland's rule needs.
func (s *SparseSolver) bland(ref int) int {
	if ref >= 0 {
		return ref
	}
	return s.p.NumCols() + (-ref - 1)
}

// noRef marks "no entering candidate" (all reduced costs nonnegative).
const noRef = math.MinInt

// chooseEntering prices every nonbasic column and <= slack (equality
// slacks never enter): Dantzig (most negative reduced cost, first in
// Bland order on ties) normally, Bland's rule (first negative in the
// fixed order) once the iteration count suggests cycling.
func (s *SparseSolver) chooseEntering(phase1, useBland bool) int {
	if cap(s.slackAt) < s.m {
		s.slackAt = make([]int, s.m)
	}
	s.slackAt = s.slackAt[:s.m]
	for r := range s.slackAt {
		s.slackAt[r] = -1
	}
	for i, ref := range s.basis {
		if ref < 0 {
			s.slackAt[-ref-1] = i
		}
	}
	enter := noRef
	bestRc := -spxRcTol
	for j := 0; j < s.p.NumCols(); j++ {
		if s.inBasis[j] >= 0 {
			continue
		}
		if rc := s.reducedCost(j, phase1); rc < bestRc {
			bestRc = rc
			enter = j
			if useBland {
				return enter
			}
		}
	}
	for r := 0; r < s.m; r++ {
		if s.slackAt[r] >= 0 || s.p.eq[r] {
			continue
		}
		ref := -(r + 1)
		if rc := s.reducedCost(ref, phase1); rc < bestRc {
			bestRc = rc
			enter = ref
			if useBland {
				return enter
			}
		}
	}
	return enter
}

// Solve optimizes the problem from the current basis. It returns
// ErrInfeasible when no point satisfies the rows and ErrUnbounded when
// the objective is unbounded below; both are the package's typed
// sentinels, so callers can branch with errors.Is. On success the result
// carries the primal solution, the objective, and the row duals.
func (s *SparseSolver) Solve() (*SparseResult, error) {
	s.sync()
	s.computeXB()
	totalPivots := 0
	budget := maxPivotMult * (s.m + s.p.NumCols() + 1)
	blandAfter := budget / 2

	infeasible := func() bool {
		for i, v := range s.xb {
			if v < -spxFeasTol || (v > spxFeasTol && s.eqSlack(s.basis[i])) {
				return true
			}
		}
		return false
	}
	resets := 0

restart:
	if s.reset {
		resets++
		if resets > 3 {
			return nil, fmt.Errorf("%w: repeated singular bases", ErrBadProblem)
		}
	}
	s.reset = false

	// Phase 1 (composite): while some basic value is negative, or some
	// equality slack is off zero, minimize the total infeasibility — the
	// sum of -xb_i over negative rows plus xb_i over equality slacks
	// above zero. No artificial variables: the piecewise-linear costs are
	// re-derived after every pivot, and the ratio test stops infeasible
	// basic values where they reach zero (where the composite objective
	// changes slope). An equality slack at zero is stopped there from
	// either side.
	for iter := 0; infeasible(); iter++ {
		if iter >= budget {
			return nil, fmt.Errorf("%w: phase 1 pivot budget exhausted", ErrInfeasible)
		}
		s.duals(s.basicCosts(true))
		enter := s.chooseEntering(true, iter >= blandAfter)
		if enter == noRef {
			return nil, ErrInfeasible
		}
		s.direction(enter)
		leave := -1
		best := math.Inf(1)
		for i := 0; i < s.m; i++ {
			var ratio float64
			switch {
			case s.xb[i] >= -spxFeasTol && s.d[i] > spxPivTol:
				ratio = math.Max(s.xb[i], 0) / s.d[i]
			case s.xb[i] < -spxFeasTol && s.d[i] < -spxPivTol:
				ratio = s.xb[i] / s.d[i]
			case s.xb[i] <= spxFeasTol && s.d[i] < -spxPivTol && s.eqSlack(s.basis[i]):
				ratio = math.Max(-s.xb[i], 0) / -s.d[i]
			default:
				continue
			}
			if ratio < best-spxFeasTol ||
				(ratio < best+spxFeasTol && (leave < 0 || s.bland(s.basis[i]) < s.bland(s.basis[leave]))) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			// Unreachable: a negative composite reduced cost implies some
			// infeasible row moves toward zero, which blocks.
			return nil, ErrInfeasible
		}
		s.pivot(leave, enter)
		totalPivots++
		if s.reset {
			goto restart
		}
	}

	// Phase 2: minimize the real objective from the feasible basis.
	for iter := 0; ; iter++ {
		if iter >= budget {
			break // report the current feasible point
		}
		s.duals(s.basicCosts(false))
		enter := s.chooseEntering(false, iter >= blandAfter)
		if enter == noRef {
			break
		}
		s.direction(enter)
		leave := -1
		best := math.Inf(1)
		for i := 0; i < s.m; i++ {
			var ratio float64
			switch {
			case s.d[i] > spxPivTol:
				ratio = math.Max(s.xb[i], 0) / s.d[i]
			case s.d[i] < -spxPivTol && s.eqSlack(s.basis[i]):
				ratio = math.Max(-s.xb[i], 0) / -s.d[i]
			default:
				continue
			}
			if ratio < best-spxFeasTol ||
				(ratio < best+spxFeasTol && (leave < 0 || s.bland(s.basis[i]) < s.bland(s.basis[leave]))) {
				best = ratio
				leave = i
			}
		}
		if leave < 0 {
			return nil, ErrUnbounded
		}
		s.pivot(leave, enter)
		totalPivots++
		if s.reset {
			goto restart
		}
	}

	res := &SparseResult{
		X:      make([]float64, s.p.NumCols()),
		Pivots: totalPivots,
	}
	for i, ref := range s.basis {
		if ref >= 0 {
			res.X[ref] = math.Max(s.xb[i], 0)
		}
	}
	for j, c := range s.p.obj {
		if x := res.X[j]; x != 0 && c != 0 {
			res.Obj += c * x
		}
	}
	s.duals(s.basicCosts(false))
	res.Y = append([]float64(nil), s.y...)
	return res, nil
}
