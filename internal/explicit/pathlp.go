package explicit

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/ksp"
	"repro/internal/lp"
	"repro/internal/mcf"
	"repro/internal/par"
	"repro/internal/traffic"
)

// ErrLP reports that the path LP could not be solved to optimality (a
// numerical failure of the simplex, not an input error — the model is
// feasible and bounded by construction). Callers fall back to a
// non-LP routing.
var ErrLP = errors.New("explicit: path LP not solved")

// PathLP selects per-demand traffic splits over each pair's k cheapest
// simple paths, minimizing the maximum link utilization (the MPLS-style
// explicit-path LP: variables are per-path fractions plus the MLU).
//
// Candidate paths depend only on the weights, not the matrix, so a
// PathLP caches them per ordered pair: re-solving for a rescaled or
// otherwise changed matrix over the same pairs skips enumeration
// entirely (the contract behind sweep weight reuse and the mplslp
// benchmark's fast path). A PathLP is NOT safe for concurrent use.
type PathLP struct {
	g     *graph.Graph
	w     []float64
	k     int
	cands map[[2]int][]ksp.Path
	// first caches each pair's shortest path for SolveColGen (kept apart
	// from cands: colgen never needs the k-deep enumeration).
	first map[[2]int][]int
}

// NewPathLP validates the query shape; path enumeration is deferred to
// Solve, which knows the demand pairs.
func NewPathLP(g *graph.Graph, weights []float64, k int) (*PathLP, error) {
	if len(weights) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	if k < 1 {
		return nil, fmt.Errorf("%w: k=%d must be >= 1", ErrBadInput, k)
	}
	return &PathLP{
		g:     g,
		w:     append([]float64(nil), weights...),
		k:     k,
		cands: make(map[[2]int][]ksp.Path),
		first: make(map[[2]int][]int),
	}, nil
}

// LPResult is the output of PathLP.Solve.
type LPResult struct {
	// Flow is the selected routing, assembled in demand order.
	Flow *mcf.Flow
	// MLU is Flow's maximum link utilization (recomputed from the flow,
	// not the LP objective, so it is consistent with every other
	// router's reporting arithmetic).
	MLU float64
	// Paths is the total number of candidate paths across demands (for
	// SolveColGen: the columns actually generated, first paths included).
	Paths int
	// Rounds is the number of pricing rounds SolveColGen ran (zero for
	// Solve, which prices nothing).
	Rounds int
}

// Solve enumerates (or reuses) each demand pair's k candidates and
// solves the split LP as column generation's restricted master with
// every candidate loaded at once and no pricing round: each demand's
// cheapest candidate carries the eliminated remainder, the others enter
// as alternate columns. Returns ErrLP-wrapped errors on simplex failure.
func (p *PathLP) Solve(ctx context.Context, tm *traffic.Matrix) (*LPResult, error) {
	dems := tm.Demands()
	if err := p.enumerate(ctx, dems); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first := make([][]int, len(dems))
	used := make([]bool, p.g.NumLinks())
	for i, d := range dems {
		paths := p.cands[[2]int{d.Src, d.Dst}]
		first[i] = paths[0].Links
		for _, path := range paths {
			for _, e := range path.Links {
				used[e] = true
			}
		}
	}
	m, err := newPathMaster(p.g, dems, first, used)
	if err != nil {
		return nil, err
	}
	for i, d := range dems {
		for _, path := range p.cands[[2]int{d.Src, d.Dst}][1:] {
			if err := m.addAlt(i, path.Links); err != nil {
				return nil, err
			}
		}
	}
	x, err := m.solver.Solve()
	if err != nil {
		// Surface the typed sentinel (lp.ErrUnbounded / lp.ErrInfeasible)
		// inside the ErrLP wrap so callers can distinguish the failure.
		return nil, fmt.Errorf("%w: %w", ErrLP, err)
	}
	return m.result(tm, x.X), nil
}

// pathMaster is the minimum-MLU restricted master LP over explicit
// paths that Solve and SolveColGen share. Each demand's first path
// carries the implicit fraction 1 - (sum of its alternates), which
// eliminates the per-demand convexity rows: the master has one row per
// link a path may use,
//
//	sum_d vol_d (u_p - u_p0) . x  -  cap_e theta  <=  -base_e
//
// (base_e = load of the all-first-paths routing), plus one "alternate
// sum <= 1" row per demand that has alternates, added with its first
// alternate. Rows and columns are append-only, so the solver
// warm-starts across appends.
type pathMaster struct {
	g      *graph.Graph
	dems   []traffic.Demand
	first  [][]int
	prob   *lp.SparseProblem
	solver *lp.SparseSolver
	altRow []int // per demand: its alternate-sum row, -1 before the first alternate
	// Alternate a is master column 1+a (theta is column 0). Each
	// demand's alternates form a list in the order they were added:
	// altHead/altTail per demand (-1 while it has none), altNext per
	// alternate (-1 at the end). Flat storage keeps a bulk load to a
	// few allocations.
	altLinks         [][]int
	altNext          []int
	altHead, altTail []int
	row              []int     // per link: its master row, -1 when no path may use it
	coef             []float64 // per-link scratch for addAlt; all zero between calls
	rows             []int
	vals             []float64
}

// newPathMaster builds the link rows and the theta column. used marks
// the links any column will touch — a link outside it only repeats
// theta >= 0 and gets no row — or is nil when any link may be priced
// in later.
func newPathMaster(g *graph.Graph, dems []traffic.Demand, first [][]int, used []bool) (*pathMaster, error) {
	n := g.NumLinks()
	base := make([]float64, n)
	for i, d := range dems {
		for _, e := range first[i] {
			base[e] += d.Volume
		}
	}
	m := &pathMaster{
		g:       g,
		dems:    dems,
		first:   first,
		prob:    lp.NewSparseProblem(),
		altRow:  make([]int, len(dems)),
		altHead: make([]int, len(dems)),
		altTail: make([]int, len(dems)),
		row:     make([]int, n),
		coef:    make([]float64, n),
		rows:    make([]int, 0, n),
		vals:    make([]float64, 0, n),
	}
	for i := range m.altRow {
		m.altRow[i], m.altHead[i], m.altTail[i] = -1, -1, -1
	}
	for e := 0; e < n; e++ {
		m.row[e] = -1
		if used != nil && !used[e] {
			continue
		}
		r, err := m.prob.AddRow(-base[e])
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrLP, err)
		}
		m.row[e] = r
		m.rows = append(m.rows, r)
		m.vals = append(m.vals, -g.Link(e).Cap)
	}
	if _, err := m.prob.AddColumn(1, m.rows, m.vals); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrLP, err)
	}
	m.solver = lp.NewSparseSolver(m.prob)
	return m, nil
}

// addAlt appends path links as an alternate column of demand i: the
// per-link flow delta against the demand's first path (vol on links
// the path adds, -vol on links it leaves; shared links cancel exactly)
// plus the demand's alternate-sum row.
func (m *pathMaster) addAlt(i int, links []int) error {
	if m.altRow[i] < 0 {
		r, err := m.prob.AddRow(1)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrLP, err)
		}
		m.altRow[i] = r
	}
	vol := m.dems[i].Volume
	m.rows = m.rows[:0]
	for _, e := range links {
		m.coef[e] += vol
		m.rows = append(m.rows, e)
	}
	for _, e := range m.first[i] {
		m.coef[e] -= vol
		m.rows = append(m.rows, e)
	}
	sort.Ints(m.rows)
	// Keep each nonzero link once, in link order (which is row order);
	// a cancelled link is exactly zero already, so resetting the kept
	// ones clears coef.
	m.vals = m.vals[:0]
	kept := m.rows[:0]
	for k, e := range m.rows {
		if v := m.coef[e]; v != 0 && (k == 0 || m.rows[k-1] != e) {
			kept = append(kept, e)
			m.vals = append(m.vals, v)
		}
	}
	for k, e := range kept {
		m.coef[e] = 0
		kept[k] = m.row[e]
	}
	m.rows = append(kept, m.altRow[i])
	m.vals = append(m.vals, 1)
	if _, err := m.prob.AddColumn(0, m.rows, m.vals); err != nil {
		return fmt.Errorf("%w: %v", ErrLP, err)
	}
	a := len(m.altLinks)
	m.altLinks = append(m.altLinks, links)
	m.altNext = append(m.altNext, -1)
	if t := m.altTail[i]; t >= 0 {
		m.altNext[t] = a
	} else {
		m.altHead[i] = a
	}
	m.altTail[i] = a
	return nil
}

// hasAlt reports whether links is already an alternate of demand i.
func (m *pathMaster) hasAlt(i int, links []int) bool {
	for a := m.altHead[i]; a >= 0; a = m.altNext[a] {
		if equalLinkSeq(m.altLinks[a], links) {
			return true
		}
	}
	return false
}

// result assembles the master solution x into the routing, in demand
// order: each demand's alternates at their master fractions, its first
// path at the eliminated remainder.
func (m *pathMaster) result(tm *traffic.Matrix, x []float64) *LPResult {
	f := mcf.NewFlow(m.g, tm.Destinations())
	for i, d := range m.dems {
		ft := f.PerDest[d.Dst]
		var altSum float64
		for a := m.altHead[i]; a >= 0; a = m.altNext[a] {
			frac := x[1+a]
			if frac <= 0 {
				continue
			}
			if frac > 1 {
				frac = 1
			}
			altSum += frac
			for _, e := range m.altLinks[a] {
				ft[e] += d.Volume * frac
			}
		}
		if frac := 1 - altSum; frac > 0 {
			for _, e := range m.first[i] {
				ft[e] += d.Volume * frac
			}
		}
	}
	f.RecomputeTotal()
	return &LPResult{Flow: f, MLU: MaxUtil(m.g, f.Total), Paths: len(m.dems) + len(m.altLinks)}
}

// enumerate fills the candidate cache for every missing demand pair, on
// parallel workers writing disjoint slots (per-pair enumeration itself
// is sequential, so results are worker-count independent).
func (p *PathLP) enumerate(ctx context.Context, dems []traffic.Demand) error {
	var missing [][2]int
	seen := make(map[[2]int]bool)
	for _, d := range dems {
		key := [2]int{d.Src, d.Dst}
		if _, ok := p.cands[key]; !ok && !seen[key] {
			seen[key] = true
			missing = append(missing, key)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	found := make([][]ksp.Path, len(missing))
	errs := make([]error, len(missing))
	par.Do(len(missing), func(i int) {
		found[i], errs[i] = ksp.KShortest(p.g, p.w, missing[i][0], missing[i][1], p.k)
	})
	for i, err := range errs {
		if err != nil {
			return err
		}
		if len(found[i]) == 0 {
			return fmt.Errorf("%w: demand %d -> %d is not routable", ErrBadInput, missing[i][0], missing[i][1])
		}
		p.cands[missing[i]] = found[i]
	}
	return nil
}
