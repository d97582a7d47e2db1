// Package lp implements the primal simplex solver every linear program
// of the reproduction runs on: SparseSolver, a revised simplex over
// problems in the form
//
//	minimize    c . x
//	subject to  a_i . x <= b_i   or   a_i . x = b_i   for every row i
//	            x >= 0.
//
// It is the optimization substrate for the exact baselines —
// minimum-MLU routing, lexicographic min-max load balance, and
// minimum-cost multi-commodity flow (paper Eq. 9 and the Table I
// baseline columns), built in internal/mcf as node-arc LPs with one
// equality row per flow-conservation constraint — and for
// internal/explicit's path LP, the restricted master that column
// generation re-solves as it grows.
//
// A SparseProblem stores its columns compressed (one start, one index
// and one value slice) and grows append-only (AddRow, AddEqRow,
// AddColumn); a SparseSolver bound to it keeps its basis across Solve
// calls, so a re-solve after appending warm-starts from the previous
// optimum, and reports the row duals pricing needs. Non-optimal
// outcomes are the typed sentinels ErrInfeasible and ErrUnbounded.
//
// # Usage
//
// Declare rows, add columns with their nonzero entries, then solve:
//
//	p := lp.NewSparseProblem()
//	rx, _ := p.AddRow(2)                               // x <= 2
//	sum, _ := p.AddEqRow(3)                            // x + y = 3
//	p.AddColumn(-1, []int{rx, sum}, []float64{1, 1})   // x, cost -1
//	p.AddColumn(0, []int{sum}, []float64{1})           // y, cost 0
//	res, err := lp.NewSparseSolver(p).Solve()          // res.X, res.Obj, res.Y
//
// # Method
//
// The basis inverse is kept dense in product form and refactorized
// periodically. Phase 1 is composite: no artificial variables, just
// the sum of infeasibilities minimized until the basis is feasible;
// phase 2 optimizes the real objective. An equality row's slack is
// fixed at zero: it starts basic, phase 1 counts it infeasible on
// either side of zero, both ratio tests stop it at zero, and once it
// leaves the basis it never re-enters (a redundant equality keeps its
// slack basic at zero). Pricing is Dantzig's rule with a Bland
// anti-cycling fallback. The solver is deterministic: identical
// problems pivot identically, which keeps every LP-backed result
// bit-reproducible across runs and worker counts.
package lp
