package lp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// rhsMode selects how randLP draws right-hand sides.
type rhsMode int

const (
	planted rhsMode = iota // b = A x0, plus a positive margin on <= rows
	tight                  // b = A x0 on every row: x0 is a degenerate vertex
	random                 // b drawn at random: possibly infeasible
)

// randLP builds a random problem with m rows over n columns in dense
// oracle form. Coefficients and the planted point x0 are multiples of
// 1/8, so the row sums a_i.x0 are exact. Each row is an equality with
// probability eqFrac, else <=. The planted and tight modes are feasible
// by construction. Objectives lean positive but are unbounded below
// often enough to exercise that outcome too.
func randLP(rng *rand.Rand, m, n int, eqFrac float64, mode rhsMode) *denseProblem {
	eighths := func(lo, hi float64) float64 { return math.Round((lo+rng.Float64()*(hi-lo))*8) / 8 }
	d := newDenseProblem(n)
	x0 := make([]float64, n)
	for j := range x0 {
		if rng.Float64() < 0.7 {
			x0[j] = eighths(0, 3)
		}
		d.Obj[j] = eighths(-0.6, 1.4)
	}
	for i := 0; i < m; i++ {
		row := make([]float64, n)
		var b float64
		for j := range row {
			if rng.Float64() < 0.4 {
				row[j] = eighths(-2, 2)
			}
			b += row[j] * x0[j]
		}
		r := relLE
		if rng.Float64() < eqFrac {
			r = relEQ
		}
		switch {
		case mode == random:
			b = eighths(-3, 3)
		case mode == planted && r == relLE:
			b += rng.Float64()
		}
		d.add(row, r, b)
	}
	return d
}

// randSparse builds a random <= problem, feasible by construction
// (some right-hand sides go negative when A does).
func randSparse(t testing.TB, rng *rand.Rand, m, n int) *SparseProblem {
	return sparseFrom(t, randLP(rng, m, n, 0, planted))
}

// TestSparseMatchesDense cross-checks the sparse solver against the
// dense tableau oracle on random mixed <=/= problems, feasible by
// construction or not: same status, same optimal value, and a
// certificate for every optimum.
func TestSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seen := map[denseStatus]int{}
	for trial := 0; trial < 300; trial++ {
		m, n := 1+rng.Intn(8), 1+rng.Intn(10)
		mode := planted
		if trial%4 == 3 {
			mode = random
		}
		d := randLP(rng, m, n, []float64{0, 0.3, 0.7}[trial%3], mode)
		want, err := denseSolve(d)
		if err != nil {
			t.Fatalf("trial %d: dense: %v", trial, err)
		}
		seen[want.Status]++
		sp := sparseFrom(t, d)
		got, err := NewSparseSolver(sp).Solve()
		switch want.Status {
		case statusUnbounded:
			if !errors.Is(err, ErrUnbounded) {
				t.Fatalf("trial %d: dense unbounded, sparse err = %v", trial, err)
			}
			continue
		case statusInfeasible:
			if !errors.Is(err, ErrInfeasible) {
				t.Fatalf("trial %d: dense infeasible, sparse err = %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: sparse: %v (dense optimal %v)", trial, err, want.Obj)
		}
		if scale := 1 + math.Abs(want.Obj); math.Abs(got.Obj-want.Obj) > 1e-6*scale {
			t.Fatalf("trial %d: sparse obj %v, dense %v", trial, got.Obj, want.Obj)
		}
		certify(t, sp, got)
	}
	for _, st := range []denseStatus{statusOptimal, statusInfeasible, statusUnbounded} {
		if seen[st] == 0 {
			t.Errorf("no %v problem among the trials: outcome untested", st)
		}
	}
}

// TestSparseCertificateGenerated certifies the solver on generated
// problem families that stress its pivoting rules: degenerate (many
// zero right-hand sides, so ratio ties at zero), redundant equalities
// (rows that are combinations of others, whose slacks must stay basic
// at zero), and badly scaled (rows and columns each rescaled by a power
// of ten up to 1e3 either way, so entries span twelve orders of
// magnitude). Each is also cross-checked against the oracle.
func TestSparseCertificateGenerated(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	families := map[string]func(d *denseProblem){
		"degenerate": func(*denseProblem) {}, // drawn with tight right-hand sides
		"redundant": func(d *denseProblem) {
			var eqs []denseCon
			for _, c := range d.Cons {
				if c.Rel == relEQ {
					eqs = append(eqs, c)
				}
			}
			for k := 0; k < 3 && len(eqs) > 0; k++ {
				a, b := eqs[rng.Intn(len(eqs))], eqs[rng.Intn(len(eqs))]
				fa, fb := float64(1+rng.Intn(3)), float64(rng.Intn(3))
				row := make([]float64, d.NumVars)
				for j := range row {
					if j < len(a.Coeffs) {
						row[j] += fa * a.Coeffs[j]
					}
					if j < len(b.Coeffs) {
						row[j] += fb * b.Coeffs[j]
					}
				}
				d.add(row, relEQ, fa*a.RHS+fb*b.RHS)
			}
		},
		"scaled": func(d *denseProblem) {
			colScale := make([]float64, d.NumVars)
			for j := range colScale {
				colScale[j] = math.Pow(10, float64(rng.Intn(7)-3))
				d.Obj[j] *= colScale[j]
			}
			for i := range d.Cons {
				rs := math.Pow(10, float64(rng.Intn(7)-3))
				for j := range d.Cons[i].Coeffs {
					d.Cons[i].Coeffs[j] *= rs * colScale[j]
				}
				d.Cons[i].RHS *= rs
			}
		},
	}
	for _, name := range []string{"degenerate", "redundant", "scaled"} {
		optimal := 0
		for trial := 0; trial < 80; trial++ {
			mode := planted
			if name == "degenerate" {
				mode = tight
			}
			d := randLP(rng, 2+rng.Intn(10), 2+rng.Intn(12), 0.4, mode)
			families[name](d)
			want, err := denseSolve(d)
			if err != nil {
				t.Fatalf("%s %d: dense: %v", name, trial, err)
			}
			sp := sparseFrom(t, d)
			got, err := NewSparseSolver(sp).Solve()
			switch want.Status {
			case statusUnbounded:
				if !errors.Is(err, ErrUnbounded) {
					t.Fatalf("%s %d: dense unbounded, sparse err = %v", name, trial, err)
				}
				continue
			case statusInfeasible:
				t.Fatalf("%s %d: feasible-by-construction problem reported infeasible by the oracle", name, trial)
			}
			if err != nil {
				t.Fatalf("%s %d: sparse: %v (dense optimal %v)", name, trial, err, want.Obj)
			}
			if scale := 1 + math.Abs(want.Obj); math.Abs(got.Obj-want.Obj) > 1e-6*scale {
				t.Fatalf("%s %d: sparse obj %v, dense %v", name, trial, got.Obj, want.Obj)
			}
			certify(t, sp, got)
			optimal++
		}
		if optimal == 0 {
			t.Errorf("%s: no optimal trial", name)
		}
	}
}

// TestSparseWarmStart grows a solved problem by columns and a row (a
// <= row on even trials, an equality row on odd ones) and re-solves
// warm, comparing against a cold solver on the grown problem. The warm
// re-solve must match the cold outcome and optimum, and do less
// pivoting than a cold start would on at least some trials (the
// factorization-reuse contract).
func TestSparseWarmStart(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	warmCheaper := 0
	for trial := 0; trial < 40; trial++ {
		m, n := 2+rng.Intn(6), 2+rng.Intn(8)
		sp := randSparse(t, rng, m, n)
		warm := NewSparseSolver(sp)
		first, err := warm.Solve()
		if err != nil {
			if errors.Is(err, ErrUnbounded) {
				continue
			}
			t.Fatalf("trial %d: first solve: %v", trial, err)
		}
		certify(t, sp, first)
		// Grow: one fresh row, then columns that may use it.
		addRow := sp.AddRow
		if trial%2 == 1 {
			addRow = sp.AddEqRow
		}
		newRow, err := addRow(1 + rng.Float64())
		if err != nil {
			t.Fatal(err)
		}
		for extra := 0; extra < 3; extra++ {
			var rows []int
			var vals []float64
			for i := 0; i < m; i++ {
				if rng.Float64() < 0.4 {
					rows = append(rows, i)
					vals = append(vals, rng.Float64()*2-1)
				}
			}
			rows = append(rows, newRow)
			vals = append(vals, 1)
			if _, err := sp.AddColumn(rng.Float64()-0.8, rows, vals); err != nil {
				t.Fatal(err)
			}
		}
		got, err := warm.Solve()
		cold, coldErr := NewSparseSolver(sp).Solve()
		if coldErr != nil {
			if err == nil || errors.Is(err, ErrInfeasible) != errors.Is(coldErr, ErrInfeasible) {
				t.Fatalf("trial %d: cold solve: %v, warm re-solve: %v", trial, coldErr, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: warm re-solve: %v", trial, err)
		}
		certify(t, sp, got)
		certify(t, sp, cold)
		scale := 1 + math.Abs(cold.Obj)
		if math.Abs(got.Obj-cold.Obj) > 1e-6*scale {
			t.Fatalf("trial %d: warm obj %v, cold %v", trial, got.Obj, cold.Obj)
		}
		if trial%2 == 0 && got.Obj > first.Obj+1e-9*scale {
			t.Fatalf("trial %d: adding columns worsened the optimum: %v -> %v", trial, first.Obj, got.Obj)
		}
		if got.Pivots < cold.Pivots {
			warmCheaper++
		}
	}
	if warmCheaper == 0 {
		t.Fatal("warm re-solve never pivoted less than a cold start")
	}
}

// TestSparseSentinels pins the solver's typed error contract.
func TestSparseSentinels(t *testing.T) {
	// x >= 0 with 1*x <= -1: infeasible.
	inf := NewSparseProblem()
	if _, err := inf.AddRow(-1); err != nil {
		t.Fatal(err)
	}
	if _, err := inf.AddColumn(0, []int{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSparseSolver(inf).Solve(); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("infeasible problem: err = %v, want ErrInfeasible", err)
	}

	// min -x1 with x1 - x2 <= 1: unbounded along x1 = x2 + 1.
	unb := NewSparseProblem()
	if _, err := unb.AddRow(1); err != nil {
		t.Fatal(err)
	}
	if _, err := unb.AddColumn(-1, []int{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := unb.AddColumn(0, []int{0}, []float64{-1}); err != nil {
		t.Fatal(err)
	}
	if _, err := NewSparseSolver(unb).Solve(); !errors.Is(err, ErrUnbounded) {
		t.Fatalf("unbounded problem: err = %v, want ErrUnbounded", err)
	}
}

// TestSparseValidation exercises the append-time input checks.
func TestSparseValidation(t *testing.T) {
	p := NewSparseProblem()
	if _, err := p.AddRow(math.NaN()); err == nil {
		t.Fatal("NaN rhs accepted")
	}
	if _, err := p.AddRow(2); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddColumn(math.Inf(1), nil, nil); err == nil {
		t.Fatal("Inf objective accepted")
	}
	if _, err := p.AddColumn(0, []int{0}, nil); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := p.AddColumn(0, []int{1}, []float64{1}); err == nil {
		t.Fatal("out-of-range row accepted")
	}
	if _, err := p.AddColumn(0, []int{0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("duplicate row index accepted")
	}
	if _, err := p.AddColumn(0, []int{0}, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN entry accepted")
	}
	if _, err := p.AddColumn(1, []int{0}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	res := solveCertified(t, p)
	if res.Obj != 0 || res.X[0] != 0 {
		t.Fatalf("min x s.t. x <= 2: got X=%v obj=%v", res.X, res.Obj)
	}
}

// TestSparseDegenerate solves a deliberately degenerate problem (many
// ties at zero) to exercise the Bland fallback path without cycling.
func TestSparseDegenerate(t *testing.T) {
	p := NewSparseProblem()
	for i := 0; i < 6; i++ {
		if _, err := p.AddRow(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddRow(1); err != nil {
		t.Fatal(err)
	}
	// Every variable is capped by the same zero-rhs rows; only x5 can
	// grow, bounded by the last row.
	for j := 0; j < 5; j++ {
		if _, err := p.AddColumn(-1, []int{j, j + 1}, []float64{1, -1}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddColumn(-1, []int{6}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	res := solveCertified(t, p)
	if math.Abs(res.Obj+1) > 1e-7 {
		t.Fatalf("degenerate problem obj %v, want -1", res.Obj)
	}
}
