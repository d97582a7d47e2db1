package lp

import (
	"math"
	"testing"
)

// certify checks r against p as an optimality certificate: the primal
// point is feasible (<= rows, = rows, x >= 0), the duals are feasible
// (Y <= 0 on <= rows, any sign on = rows, nonnegative reduced costs),
// complementary slackness holds term by term, and y.b equals c.x. Each
// tolerance is relative to the magnitudes that enter the quantity it
// bounds, so badly scaled problems are held to the same relative
// accuracy as well-scaled ones.
func certify(t testing.TB, p *SparseProblem, r *SparseResult) {
	t.Helper()
	const rel = 1e-7
	m, n := p.NumRows(), p.NumCols()
	if len(r.X) != n || len(r.Y) != m {
		t.Fatalf("certificate: len(X)=%d len(Y)=%d for %d columns, %d rows", len(r.X), len(r.Y), n, m)
	}
	lhs := make([]float64, m)    // a_i . x
	lhsAbs := make([]float64, m) // sum_j |a_ij x_j|
	var cx, cxAbs float64
	for j := 0; j < n; j++ {
		x := r.X[j]
		if !(x >= 0) {
			t.Fatalf("certificate: x[%d] = %v < 0", j, x)
		}
		cx += p.obj[j] * x
		cxAbs += math.Abs(p.obj[j] * x)
		rows, vals := p.col(j)
		for k, i := range rows {
			lhs[i] += vals[k] * x
			lhsAbs[i] += math.Abs(vals[k] * x)
		}
	}
	if math.Abs(cx-r.Obj) > rel*(1+cxAbs) {
		t.Fatalf("certificate: reported objective %v, c.x = %v", r.Obj, cx)
	}
	var yb, ybAbs float64
	for i := 0; i < m; i++ {
		yb += r.Y[i] * p.rhs[i]
		ybAbs += math.Abs(r.Y[i] * p.rhs[i])
	}
	// Complementary-slackness terms are each bounded relative to the
	// objective's scale: summed, they are the duality gap.
	csTol := rel * (1 + cxAbs + ybAbs)
	for i := 0; i < m; i++ {
		y, b := r.Y[i], p.rhs[i]
		rowTol := rel * (1 + math.Abs(b) + lhsAbs[i])
		slack := b - lhs[i]
		if p.eq[i] {
			if math.Abs(slack) > rowTol {
				t.Fatalf("certificate: equality row %d: a.x = %v, b = %v", i, lhs[i], b)
			}
			continue
		}
		if slack < -rowTol {
			t.Fatalf("certificate: row %d: a.x = %v > b = %v", i, lhs[i], b)
		}
		if y > rel {
			t.Fatalf("certificate: <= row %d has dual %v > 0", i, y)
		}
		if math.Abs(y*slack) > csTol {
			t.Fatalf("certificate: row %d: dual %v with slack %v", i, y, slack)
		}
	}
	for j := 0; j < n; j++ {
		rc, rcAbs := p.obj[j], math.Abs(p.obj[j])
		rows, vals := p.col(j)
		for k, i := range rows {
			rc -= r.Y[i] * vals[k]
			rcAbs += math.Abs(r.Y[i] * vals[k])
		}
		if rc < -rel*(1+rcAbs) {
			t.Fatalf("certificate: column %d reduced cost %v < 0", j, rc)
		}
		if math.Abs(r.X[j]*rc) > csTol {
			t.Fatalf("certificate: column %d at x = %v has reduced cost %v", j, r.X[j], rc)
		}
	}
	if math.Abs(yb-cx) > rel*(1+cxAbs+ybAbs) {
		t.Fatalf("certificate: duality gap: y.b = %v, c.x = %v", yb, cx)
	}
}

// solveCertified solves p from a fresh solver and certifies the result.
func solveCertified(t testing.TB, p *SparseProblem) *SparseResult {
	t.Helper()
	r, err := NewSparseSolver(p).Solve()
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	certify(t, p, r)
	return r
}

// sparseFrom converts an oracle problem to the sparse form: <= and =
// rows keep their sense, >= rows are negated into <= rows.
func sparseFrom(t testing.TB, d *denseProblem) *SparseProblem {
	t.Helper()
	p := NewSparseProblem()
	sign := make([]float64, len(d.Cons))
	for i, c := range d.Cons {
		var err error
		switch c.Rel {
		case relLE:
			sign[i] = 1
			_, err = p.AddRow(c.RHS)
		case relGE:
			sign[i] = -1
			_, err = p.AddRow(-c.RHS)
		case relEQ:
			sign[i] = 1
			_, err = p.AddEqRow(c.RHS)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < d.NumVars; j++ {
		var rows []int
		var vals []float64
		for i, c := range d.Cons {
			if j < len(c.Coeffs) && c.Coeffs[j] != 0 {
				rows = append(rows, i)
				vals = append(vals, sign[i]*c.Coeffs[j])
			}
		}
		if _, err := p.AddColumn(d.Obj[j], rows, vals); err != nil {
			t.Fatal(err)
		}
	}
	return p
}
