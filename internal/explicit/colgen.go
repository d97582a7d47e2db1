package explicit

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ksp"
	"repro/internal/lp"
	"repro/internal/par"
	"repro/internal/traffic"
)

// This file scales the path LP past what up-front enumeration can
// carry: instead of materializing k paths per pair and loading them all
// into the restricted master (Solve), SolveColGen starts every demand
// on its single shortest path, solves the master (pathMaster), and lets
// the LP's own duals ask for the paths it is missing (column
// generation). The pricing oracle is internal/ksp under dual-adjusted
// link costs: a candidate path's reduced cost is negative exactly when
// it is shorter, under the congestion prices, than what the master
// already routes the demand on — iterating until no pair prices in
// reaches the optimum over ALL simple paths, not just a pre-enumerated
// subset. Columns are appended between solves and the sparse solver
// warm-starts from the previous basis, so a pricing round costs only
// the pivots its new columns cause.
//
// Reduced-cost algebra, with y_e <= 0 the link-row duals, mu_d <= 0 the
// alternate-sum duals, and wtilde = -y the (nonnegative) pricing costs:
// an alternate column for path p of demand d prices at
//
//	rc(d, p) = vol_d * (C(p) - C(p0_d)) - mu_d,   C(q) = sum_{e in q} wtilde_e
//
// so p prices in iff C(p) < thr_d = C(p0_d) + mu_d/vol_d (minus
// tolerance), and the best candidate is the wtilde-shortest path — the
// oracle query. Pairs with thr_d ~ 0 (shortest path untouched by any
// priced link) are skipped without an oracle call, which is what keeps
// pricing rounds cheap on large instances.
const (
	// colgenMaxRounds bounds pricing rounds; on exhaustion the current
	// (feasible, near-optimal) master solution is returned.
	colgenMaxRounds = 400
	// colgenMaxAdd bounds columns added per round (most negative reduced
	// costs first), keeping master growth and basis size in check.
	colgenMaxAdd = 512
)

// colgenStats exposes the terminal pricing state to the package tests:
// the final pricing costs, each demand's first-path cost and
// alternate-row dual, and the growth counters.
type colgenStats struct {
	wtilde []float64 // final per-link pricing costs (-duals, clamped >= 0)
	c0     []float64 // final C(p0) per demand
	mu     []float64 // final alternate-sum dual per demand (0 when none)
	tol    float64   // pricing tolerance used on the final round
	cols   int       // total columns: first paths + alternates
	rounds int
}

// SolveColGen solves the minimum-MLU path model of Solve by column
// generation over ALL simple paths instead of k pre-enumerated ones, so
// its MLU is at most Solve's: per pricing round each pair may gain one new
// path (the cheapest under the master's dual link costs, found by the
// k-shortest oracle so duplicates can be seen past), until no pair has
// a negatively priced path. The solver's k bounds the oracle's scan
// width per round, not the candidate set. Returns ErrLP-wrapped errors
// on master failure.
func (p *PathLP) SolveColGen(ctx context.Context, tm *traffic.Matrix) (*LPResult, error) {
	res, _, err := p.solveColGen(ctx, tm, nil)
	return res, err
}

// solveColGen is SolveColGen plus test instrumentation: onColumn (when
// non-nil) observes every generated column with its reduced cost, and
// the returned stats carry the terminal pricing state.
func (p *PathLP) solveColGen(ctx context.Context, tm *traffic.Matrix, onColumn func(dem int, links []int, rc float64)) (*LPResult, *colgenStats, error) {
	dems := tm.Demands()
	first, err := p.firstPaths(ctx, dems)
	if err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	// Any link may be priced in, so every link gets a row: link e's
	// row, and its dual, is e.
	mst, err := newPathMaster(p.g, dems, first, nil)
	if err != nil {
		return nil, nil, err
	}
	m := p.g.NumLinks()
	stats := &colgenStats{
		wtilde: make([]float64, m),
		c0:     make([]float64, len(dems)),
		mu:     make([]float64, len(dems)),
	}
	wp := make([]float64, m)          // oracle weights: wtilde + delta floor
	thr := make([]float64, len(dems)) // pricing threshold per demand
	found := make([][]int, len(dems)) // candidate path per demand this round
	foundRc := make([]float64, len(dems))
	errs := make([]error, len(dems))

	var master *lp.SparseResult
	for round := 1; ; round++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		master, err = mst.solver.Solve()
		if err != nil {
			// The master is feasible and bounded by construction; any
			// failure here is numerical.
			return nil, nil, fmt.Errorf("%w: master round %d: %w", ErrLP, round, err)
		}
		stats.rounds = round

		// Duals -> pricing costs and per-demand thresholds.
		var maxW float64
		for e := 0; e < m; e++ {
			w := -master.Y[e]
			if w < 0 {
				w = 0
			}
			stats.wtilde[e] = w
			if w > maxW {
				maxW = w
			}
		}
		tol := 1e-9 * (1 + maxW)
		delta := 1e-12 * (1 + maxW)
		stats.tol = tol
		for e := 0; e < m; e++ {
			wp[e] = stats.wtilde[e] + delta
		}
		for i, d := range dems {
			var c0 float64
			for _, e := range first[i] {
				c0 += stats.wtilde[e]
			}
			stats.c0[i] = c0
			mu := 0.0
			if r := mst.altRow[i]; r >= 0 {
				if y := master.Y[r]; y < 0 {
					mu = y
				}
			}
			stats.mu[i] = mu
			thr[i] = c0 + mu/d.Volume
		}

		// Pricing: the wtilde-shortest path per pair, skipping pairs
		// whose threshold cannot be beaten by a nonnegative path cost.
		// The oracle runs under wp = wtilde + delta (ksp needs strictly
		// positive weights); delta only breaks zero-cost ties toward
		// fewer hops and is absorbed by the tolerance.
		par.Do(len(dems), func(i int) {
			found[i], errs[i] = nil, nil
			if thr[i] <= tol {
				return
			}
			paths, err := ksp.KShortest(p.g, wp, dems[i].Src, dems[i].Dst, p.k)
			if err != nil {
				errs[i] = err
				return
			}
			for _, cand := range paths {
				if cand.Cost >= thr[i]-tol {
					break // nondecreasing: nothing later prices in
				}
				if equalLinkSeq(cand.Links, first[i]) || mst.hasAlt(i, cand.Links) {
					continue // already a column; the next path may still price in
				}
				var c float64
				for _, e := range cand.Links {
					c += stats.wtilde[e]
				}
				found[i] = cand.Links
				foundRc[i] = dems[i].Volume*(c-stats.c0[i]) - stats.mu[i]
				break
			}
		})
		for _, err := range errs {
			if err != nil {
				return nil, nil, fmt.Errorf("%w: pricing: %v", ErrLP, err)
			}
		}

		var adds []int
		for i := range dems {
			if found[i] != nil {
				adds = append(adds, i)
			}
		}
		if len(adds) == 0 || round >= colgenMaxRounds {
			break
		}
		if len(adds) > colgenMaxAdd {
			// Keep the most negative reduced costs (ties: demand order).
			sort.SliceStable(adds, func(a, b int) bool {
				return foundRc[adds[a]] < foundRc[adds[b]]
			})
			adds = adds[:colgenMaxAdd]
			sort.Ints(adds)
		}

		for _, i := range adds {
			if err := mst.addAlt(i, found[i]); err != nil {
				return nil, nil, err
			}
			if onColumn != nil {
				onColumn(i, found[i], foundRc[i])
			}
		}
	}

	res := mst.result(tm, master.X)
	res.Rounds = stats.rounds
	stats.cols = res.Paths
	return res, stats, nil
}

// firstPaths returns (and caches) each demand pair's shortest path
// under the base weights — the column every pair starts from.
func (p *PathLP) firstPaths(ctx context.Context, dems []traffic.Demand) ([][]int, error) {
	var missing [][2]int
	seen := make(map[[2]int]bool)
	for _, d := range dems {
		key := [2]int{d.Src, d.Dst}
		if _, ok := p.first[key]; !ok && !seen[key] {
			seen[key] = true
			missing = append(missing, key)
		}
	}
	if len(missing) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		found := make([][]ksp.Path, len(missing))
		errs := make([]error, len(missing))
		par.Do(len(missing), func(i int) {
			found[i], errs[i] = ksp.KShortest(p.g, p.w, missing[i][0], missing[i][1], 1)
		})
		for i, err := range errs {
			if err != nil {
				return nil, err
			}
			if len(found[i]) == 0 {
				return nil, fmt.Errorf("%w: demand %d -> %d is not routable", ErrBadInput, missing[i][0], missing[i][1])
			}
			p.first[missing[i]] = found[i][0].Links
		}
	}
	out := make([][]int, len(dems))
	for i, d := range dems {
		out[i] = p.first[[2]int{d.Src, d.Dst}]
	}
	return out, nil
}

// equalLinkSeq reports whether two link sequences are identical.
func equalLinkSeq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
