package lp_test

import (
	"errors"
	"fmt"

	"repro/internal/lp"
)

// ExampleSparseSolver_Solve maximizes x + y inside a box under a
// budget equality — minimization of the negated objective, the form
// every LP in internal/mcf and internal/explicit uses.
func ExampleSparseSolver_Solve() {
	p := lp.NewSparseProblem()
	rx, _ := p.AddRow(2)       // x <= 2
	ry, _ := p.AddRow(3)       // y <= 3
	budget, _ := p.AddEqRow(4) // x + y + s = 4
	p.AddColumn(-1, []int{rx, budget}, []float64{1, 1})
	p.AddColumn(-1, []int{ry, budget}, []float64{1, 1})
	p.AddColumn(0, []int{budget}, []float64{1})
	res, err := lp.NewSparseSolver(p).Solve()
	if err != nil {
		panic(err)
	}
	fmt.Println(res.X[0]+res.X[1], -res.Obj)
	// Output:
	// 4 4
}

// ExampleSparseSolver builds a small master problem column by column,
// solves it, then appends a better column and re-solves warm — the
// grow-and-re-solve cycle a column-generation loop drives. The duals in
// Y are what prices candidate columns.
func ExampleSparseSolver() {
	p := lp.NewSparseProblem()
	rx, _ := p.AddRow(2)     // x <= 2
	ry, _ := p.AddRow(3)     // y <= 3
	shared, _ := p.AddRow(4) // x + y (+ z) <= 4
	p.AddColumn(-1, []int{rx, shared}, []float64{1, 1})
	p.AddColumn(-1, []int{ry, shared}, []float64{1, 1})
	s := lp.NewSparseSolver(p)
	res, err := s.Solve()
	if err != nil {
		panic(err)
	}
	fmt.Println(-res.Obj, res.Y[shared])

	// A new column twice as valuable on the shared row prices in
	// (reduced cost -2 - Y[shared]*1 < 0) and takes over on re-solve.
	p.AddColumn(-2, []int{shared}, []float64{1})
	res, err = s.Solve()
	if err != nil {
		panic(err)
	}
	fmt.Println(-res.Obj, res.X)
	// Output:
	// 4 -1
	// 8 [0 0 4]
}

// ExampleSparseSolver_Solve_infeasible shows the typed error for
// contradictory rows: x = 2 and x <= 1.
func ExampleSparseSolver_Solve_infeasible() {
	p := lp.NewSparseProblem()
	eq, _ := p.AddEqRow(2)
	le, _ := p.AddRow(1)
	p.AddColumn(0, []int{eq, le}, []float64{1, 1})
	_, err := lp.NewSparseSolver(p).Solve()
	fmt.Println(errors.Is(err, lp.ErrInfeasible))
	// Output:
	// true
}
