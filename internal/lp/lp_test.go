package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Small LPs with known optima, written in dense form for readability
// and solved through sparseFrom; every optimal solve is certified.

func TestSolveSimpleMax(t *testing.T) {
	// maximize 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic):
	// optimum x=2, y=6, obj=36. As minimization of -(3x+5y).
	d := newDenseProblem(2)
	d.Obj = []float64{-3, -5}
	d.add([]float64{1, 0}, relLE, 4)
	d.add([]float64{0, 2}, relLE, 12)
	d.add([]float64{3, 2}, relLE, 18)
	r := solveCertified(t, sparseFrom(t, d))
	if math.Abs(r.Obj-(-36)) > 1e-9 {
		t.Errorf("obj = %v, want -36", r.Obj)
	}
	if math.Abs(r.X[0]-2) > 1e-9 || math.Abs(r.X[1]-6) > 1e-9 {
		t.Errorf("x = %v, want [2 6]", r.X)
	}
}

func TestSolveEqualityAndGE(t *testing.T) {
	// minimize 2x + 3y s.t. x + y = 10, x >= 3, y >= 2 (the >= rows
	// enter negated). Optimum: x=8, y=2, obj=22.
	d := newDenseProblem(2)
	d.Obj = []float64{2, 3}
	d.add([]float64{1, 1}, relEQ, 10)
	d.add([]float64{1, 0}, relGE, 3)
	d.add([]float64{0, 1}, relGE, 2)
	p := sparseFrom(t, d)
	r := solveCertified(t, p)
	if math.Abs(r.Obj-22) > 1e-9 {
		t.Errorf("obj = %v, want 22", r.Obj)
	}
	if math.Abs(r.X[0]-8) > 1e-9 || math.Abs(r.X[1]-2) > 1e-9 {
		t.Errorf("x = %v, want [8 2]", r.X)
	}
	// The equality row's dual is positive here (raising the total
	// raises the cost): the sign a <= row could never carry.
	if r.Y[0] <= 0 {
		t.Errorf("equality dual = %v, want > 0", r.Y[0])
	}
}

func TestSolveNegativeRHS(t *testing.T) {
	// minimize x + y s.t. -x - y <= -5 (i.e. x + y >= 5), and the same
	// bound as an equality with a negative right-hand side. Optimum 5.
	for _, rl := range []rel{relLE, relEQ} {
		d := newDenseProblem(2)
		d.Obj = []float64{1, 1}
		d.add([]float64{-1, -1}, rl, -5)
		if r := solveCertified(t, sparseFrom(t, d)); math.Abs(r.Obj-5) > 1e-9 {
			t.Fatalf("relation %d: obj=%v, want 5", rl, r.Obj)
		}
	}
}

func TestSolveInfeasible(t *testing.T) {
	for name, build := range map[string]func(*denseProblem){
		"bounds":     func(d *denseProblem) { d.add([]float64{1}, relLE, 1); d.add([]float64{1}, relGE, 2) },
		"equalities": func(d *denseProblem) { d.add([]float64{1}, relEQ, 1); d.add([]float64{2}, relEQ, 3) },
		"negative":   func(d *denseProblem) { d.add([]float64{1}, relEQ, -1) },
	} {
		d := newDenseProblem(1)
		d.Obj = []float64{1}
		build(d)
		if _, err := NewSparseSolver(sparseFrom(t, d)).Solve(); !errors.Is(err, ErrInfeasible) {
			t.Errorf("%s: err = %v, want ErrInfeasible", name, err)
		}
	}
}

func TestSolveUnbounded(t *testing.T) {
	// minimize -x with only x >= 0; then minimize -x - y on x - y = 1.
	d := newDenseProblem(1)
	d.Obj = []float64{-1}
	d.add([]float64{1}, relGE, 0)
	if _, err := NewSparseSolver(sparseFrom(t, d)).Solve(); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("err = %v, want ErrUnbounded", err)
	}
	d = newDenseProblem(2)
	d.Obj = []float64{-1, -1}
	d.add([]float64{1, -1}, relEQ, 1)
	if _, err := NewSparseSolver(sparseFrom(t, d)).Solve(); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("equality: err = %v, want ErrUnbounded", err)
	}
}

func TestSolveDegenerate(t *testing.T) {
	// A classic degenerate LP (Beale's cycling example under Dantzig):
	// minimize -0.75x1 + 150x2 - 0.02x3 + 6x4
	// s.t. 0.25x1 - 60x2 - 0.04x3 + 9x4 <= 0
	//      0.5x1 - 90x2 - 0.02x3 + 3x4 <= 0
	//      x3 <= 1
	// Known optimum obj = -1/20.
	d := newDenseProblem(4)
	d.Obj = []float64{-0.75, 150, -0.02, 6}
	d.add([]float64{0.25, -60, -0.04, 9}, relLE, 0)
	d.add([]float64{0.5, -90, -0.02, 3}, relLE, 0)
	d.add([]float64{0, 0, 1, 0}, relLE, 1)
	if r := solveCertified(t, sparseFrom(t, d)); math.Abs(r.Obj-(-0.05)) > 1e-9 {
		t.Errorf("obj = %v, want -0.05", r.Obj)
	}
}

func TestSolveRedundantEquality(t *testing.T) {
	// Duplicate equality rows must not break phase 1: the redundant
	// row's slack stays basic at zero.
	d := newDenseProblem(2)
	d.Obj = []float64{1, 2}
	d.add([]float64{1, 1}, relEQ, 4)
	d.add([]float64{2, 2}, relEQ, 8)                                        // redundant
	if r := solveCertified(t, sparseFrom(t, d)); math.Abs(r.Obj-4) > 1e-9 { // x=4, y=0
		t.Errorf("obj = %v, want 4", r.Obj)
	}
}

// TestValidation exercises the equality-row checks: a non-finite
// right-hand side is rejected, and columns may mix <= and = rows.
func TestValidation(t *testing.T) {
	p := NewSparseProblem()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.AddEqRow(bad); !errors.Is(err, ErrBadProblem) {
			t.Errorf("AddEqRow(%v): err = %v, want ErrBadProblem", bad, err)
		}
	}
	if p.NumRows() != 0 {
		t.Fatalf("rejected rows were appended: %d rows", p.NumRows())
	}
	eq, err := p.AddEqRow(3)
	if err != nil {
		t.Fatal(err)
	}
	le, err := p.AddRow(2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddColumn(1, []int{eq, le}, []float64{1, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddColumn(2, []int{eq}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	// x0 + x1 = 3 with x0 <= 2: x0 = 2, x1 = 1, cost 4.
	if r := solveCertified(t, p); math.Abs(r.Obj-4) > 1e-9 {
		t.Fatalf("obj = %v, want 4", r.Obj)
	}
}

func TestShortCoefficientVectorsPadded(t *testing.T) {
	// A column lists only its nonzero rows; every other row reads 0.
	// The dense form writes the same rows with short coefficient
	// vectors, which the conversion zero-extends.
	d := newDenseProblem(3)
	d.Obj = []float64{0, 0, 1}
	d.add([]float64{1}, relLE, 2)    // x0 <= 2
	d.add([]float64{0, 1}, relLE, 5) // x1 <= 5
	d.add([]float64{1, 1, 1}, relEQ, 9)
	p := sparseFrom(t, d)
	if rows, _ := p.col(2); len(rows) != 1 || rows[0] != 2 {
		t.Fatalf("x2 column rows = %v, want [2]", rows)
	}
	if r := solveCertified(t, p); math.Abs(r.Obj-2) > 1e-9 { // x0=2, x1=5 -> x2=2
		t.Errorf("obj = %v, want 2", r.Obj)
	}
}

// TestRandomLPFeasibilityQuick checks random bounded LPs, feasible at
// the origin, for a certified optimum no worse than the origin.
func TestRandomLPFeasibilityQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 1 + rng.Intn(6)
		d := newDenseProblem(n)
		for j := 0; j < n; j++ {
			d.Obj[j] = rng.Float64()*4 - 2
			// Box bound keeps the LP bounded.
			row := make([]float64, n)
			row[j] = 1
			d.add(row, relLE, 1+rng.Float64()*4)
		}
		for i := 0; i < m; i++ {
			row := make([]float64, n)
			for j := 0; j < n; j++ {
				row[j] = rng.Float64() // non-negative rows with positive RHS: feasible at 0
			}
			d.add(row, relLE, 0.5+rng.Float64()*5)
		}
		r := solveCertified(t, sparseFrom(t, d))
		return r.Obj <= 1e-9 // optimality versus the origin
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestSolveMediumTransportProblem(t *testing.T) {
	// 3x4 transportation problem with known optimum.
	// Supplies: 20, 30, 25; demands: 10, 25, 20, 20 (total 75, so one
	// of the seven equality rows is redundant).
	// Costs:
	//   8 6 10 9
	//   9 12 13 7
	//   14 9 16 5
	supplies := []float64{20, 30, 25}
	demands := []float64{10, 25, 20, 20}
	costs := [][]float64{
		{8, 6, 10, 9},
		{9, 12, 13, 7},
		{14, 9, 16, 5},
	}
	p := NewSparseProblem()
	for _, s := range supplies {
		if _, err := p.AddEqRow(s); err != nil {
			t.Fatal(err)
		}
	}
	for _, dm := range demands {
		if _, err := p.AddEqRow(dm); err != nil {
			t.Fatal(err)
		}
	}
	for i := range supplies {
		for j := range demands {
			if _, err := p.AddColumn(costs[i][j], []int{i, len(supplies) + j}, []float64{1, 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Optimum verified with an independent successive-shortest-path
	// min-cost-flow solver: 615.
	const want = 615.0
	if r := solveCertified(t, p); math.Abs(r.Obj-want) > 1e-6 {
		t.Errorf("obj = %v, want %v", r.Obj, want)
	}
}
