package mcf

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/lp"
	"repro/internal/traffic"
)

// MLUResult is the output of MinMLU.
type MLUResult struct {
	Flow *Flow
	// MLU is the minimized maximum link utilization.
	MLU float64
}

// lpLayout maps (destination index, link) pairs to LP columns and builds
// the node-arc LP that MinMLU, MinCostMCF and LexMinMax share.
type lpLayout struct {
	g     *graph.Graph
	tm    *traffic.Matrix
	dests []int
	e     int // links
}

func newLayout(g *graph.Graph, tm *traffic.Matrix) (*lpLayout, error) {
	if tm.Size() != g.NumNodes() {
		return nil, fmt.Errorf("%w: %d-node demand matrix for a %d-node graph", ErrBadInput, tm.Size(), g.NumNodes())
	}
	return &lpLayout{g: g, tm: tm, dests: tm.Destinations(), e: g.NumLinks()}, nil
}

// vars returns the number of flow variables.
func (ly *lpLayout) vars() int { return len(ly.dests) * ly.e }

// varOf returns the LP column of commodity index ti on link e.
func (ly *lpLayout) varOf(ti, e int) int { return ti*ly.e + e }

// problem builds the node-arc LP. Rows: one flow-conservation equality
// per commodity and node other than the commodity's destination (whose
// row is redundant), then one capacity row per link,
//
//	sum_t f_e^t + theta[e] * theta  <=  capRHS[e].
//
// Columns: the per-commodity link flows in varOf order, each costing
// flowCost[e] (nil: zero), then — when theta is non-nil — a trailing
// theta column costing thetaCost.
func (ly *lpLayout) problem(flowCost, capRHS, theta []float64, thetaCost float64) (*lp.SparseProblem, error) {
	n := ly.g.NumNodes()
	consRow := func(ti, t, s int) int {
		if s > t {
			s--
		}
		return ti*(n-1) + s
	}
	capRow := len(ly.dests) * (n - 1)
	p := lp.NewSparseProblem()
	for _, t := range ly.dests {
		for s := 0; s < n; s++ {
			if s == t {
				continue
			}
			if _, err := p.AddEqRow(ly.tm.At(s, t)); err != nil {
				return nil, err
			}
		}
	}
	for e := 0; e < ly.e; e++ {
		if _, err := p.AddRow(capRHS[e]); err != nil {
			return nil, err
		}
	}
	rows := make([]int, 0, 3)
	vals := make([]float64, 0, 3)
	for ti, t := range ly.dests {
		for _, l := range ly.g.Links() {
			rows, vals = rows[:0], vals[:0]
			// Out of the tail (+1), into the head (-1), in row order.
			out, in := -1, -1
			if l.From != t {
				out = consRow(ti, t, l.From)
			}
			if l.To != t {
				in = consRow(ti, t, l.To)
			}
			if in >= 0 && in < out {
				rows, vals = append(rows, in), append(vals, -1)
				in = -1
			}
			if out >= 0 {
				rows, vals = append(rows, out), append(vals, 1)
			}
			if in >= 0 {
				rows, vals = append(rows, in), append(vals, -1)
			}
			rows, vals = append(rows, capRow+l.ID), append(vals, 1)
			var c float64
			if flowCost != nil {
				c = flowCost[l.ID]
			}
			if _, err := p.AddColumn(c, rows, vals); err != nil {
				return nil, err
			}
		}
	}
	if theta != nil {
		rows, vals = rows[:0], vals[:0]
		for e, v := range theta {
			if v != 0 {
				rows, vals = append(rows, capRow+e), append(vals, v)
			}
		}
		if _, err := p.AddColumn(thetaCost, rows, vals); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// solve builds and solves the node-arc LP (see problem), reporting an
// infeasible LP as ErrInfeasible with the given reason.
func (ly *lpLayout) solve(name, infeasible string, flowCost, capRHS, theta []float64, thetaCost float64) (*lp.SparseResult, error) {
	p, err := ly.problem(flowCost, capRHS, theta, thetaCost)
	if err != nil {
		return nil, fmt.Errorf("mcf: %s LP: %w", name, err)
	}
	r, err := lp.NewSparseSolver(p).Solve()
	switch {
	case errors.Is(err, lp.ErrInfeasible):
		return nil, fmt.Errorf("%w: %s", ErrInfeasible, infeasible)
	case err != nil:
		return nil, fmt.Errorf("mcf: %s LP: %w", name, err)
	}
	return r, nil
}

// extract converts an LP solution into a Flow.
func (ly *lpLayout) extract(x []float64) *Flow {
	f := NewFlow(ly.g, ly.dests)
	for ti, t := range ly.dests {
		ft := f.PerDest[t]
		for e := 0; e < ly.e; e++ {
			if v := x[ly.varOf(ti, e)]; v > 0 {
				ft[e] = v
			}
		}
	}
	f.RecomputeTotal()
	return f
}

// MinMLU solves the minimum maximum-link-utilization routing LP
// (paper Eq. 2): minimize theta subject to multi-commodity flow
// conservation and f_e <= theta * c_e.
func MinMLU(g *graph.Graph, tm *traffic.Matrix) (*MLUResult, error) {
	ly, err := newLayout(g, tm)
	if err != nil {
		return nil, err
	}
	if len(ly.dests) == 0 {
		return &MLUResult{Flow: NewFlow(g, nil), MLU: 0}, nil
	}
	theta := make([]float64, g.NumLinks()) // f_e - c_e theta <= 0
	for _, l := range g.Links() {
		theta[l.ID] = -l.Cap
	}
	r, err := ly.solve("MinMLU", "demands cannot be routed", nil, make([]float64, g.NumLinks()), theta, 1)
	if err != nil {
		return nil, err
	}
	return &MLUResult{Flow: ly.extract(r.X), MLU: r.X[ly.vars()]}, nil
}

// MinCostMCF solves the capacitated minimum-cost multi-commodity flow of
// paper Eq. (9): minimize sum_e w_e f_e subject to conservation and
// f_e <= c_e. It is the "Network(G,c,D;w)" problem whose optimum the
// first link weights support (Theorem 3.1), used to cross-validate
// Algorithm 1.
func MinCostMCF(g *graph.Graph, tm *traffic.Matrix, weights []float64) (*Flow, float64, error) {
	if len(weights) != g.NumLinks() {
		return nil, 0, fmt.Errorf("%w: got %d weights for %d links", ErrBadInput, len(weights), g.NumLinks())
	}
	ly, err := newLayout(g, tm)
	if err != nil {
		return nil, 0, err
	}
	if len(ly.dests) == 0 {
		return NewFlow(g, nil), 0, nil
	}
	caps := make([]float64, g.NumLinks())
	for _, l := range g.Links() {
		caps[l.ID] = l.Cap
	}
	r, err := ly.solve("MinCostMCF", "demands exceed capacities", weights, caps, nil, 0)
	if err != nil {
		return nil, 0, err
	}
	return ly.extract(r.X), r.Obj, nil
}

// LexMinMaxResult is the output of LexMinMax.
type LexMinMaxResult struct {
	Flow *Flow
	// Bound[e] is the utilization bound the lexicographic process froze
	// for link e (the level at which the link became binding).
	Bound []float64
	// Levels lists the successive minimized utilization levels.
	Levels []float64
}

// LexMinMax computes the min-max load-balanced traffic distribution of
// Section II-B: it minimizes the maximum link utilization, freezes the
// links that must be at that level in every optimal solution, and
// recurses on the rest — the limit of (q,beta) proportional load balance
// as beta grows (Remark 2). Cost: O(E) LPs per level; intended for the
// small illustration networks (Table I).
func LexMinMax(g *graph.Graph, tm *traffic.Matrix) (*LexMinMaxResult, error) {
	const tol = 1e-7
	ly, err := newLayout(g, tm)
	if err != nil {
		return nil, err
	}
	if len(ly.dests) == 0 {
		return &LexMinMaxResult{Flow: NewFlow(g, nil), Bound: make([]float64, g.NumLinks())}, nil
	}
	frozen := make([]bool, g.NumLinks())
	bound := make([]float64, g.NumLinks())
	var levels []float64
	var lastX []float64

	// solveLevel minimizes theta over non-frozen links, with frozen links
	// bounded by their recorded utilization; with minimizeLink >= 0 it
	// instead minimizes that link's utilization, every other non-frozen
	// link held at the last level.
	solveLevel := func(minimizeLink int) (float64, []float64, error) {
		var cost []float64
		capRHS := make([]float64, g.NumLinks())
		theta := make([]float64, g.NumLinks())
		if minimizeLink >= 0 {
			cost = make([]float64, g.NumLinks())
			cost[minimizeLink] = 1 / g.Link(minimizeLink).Cap
		}
		for _, l := range g.Links() {
			switch {
			case frozen[l.ID]:
				capRHS[l.ID] = bound[l.ID] * l.Cap
			case minimizeLink < 0:
				theta[l.ID] = -l.Cap
			default:
				capRHS[l.ID] = levels[len(levels)-1] * l.Cap
			}
		}
		thetaCost := 0.0
		if minimizeLink < 0 {
			thetaCost = 1
		}
		r, err := ly.solve("LexMinMax", "lexicographic level LP", cost, capRHS, theta, thetaCost)
		if err != nil {
			return 0, nil, err
		}
		if minimizeLink < 0 {
			return r.X[ly.vars()], r.X, nil
		}
		return r.Obj, r.X, nil
	}

	for level := 0; level < g.NumLinks(); level++ {
		allFrozen := true
		for _, fz := range frozen {
			if !fz {
				allFrozen = false
				break
			}
		}
		if allFrozen {
			break
		}
		val, x, err := solveLevel(-1)
		if err != nil {
			return nil, err
		}
		lastX = x
		levels = append(levels, val)
		if val <= tol {
			// Remaining links can be driven to zero: freeze and stop.
			for e := range frozen {
				if !frozen[e] {
					frozen[e] = true
					bound[e] = 0
				}
			}
			break
		}
		// A non-frozen link is binding iff its utilization cannot be
		// brought below the level while respecting it everywhere else.
		newlyFrozen := 0
		util := utilOf(ly, g, x)
		for _, l := range g.Links() {
			if frozen[l.ID] || util[l.ID] < val-tol {
				continue
			}
			minU, _, err := solveLevel(l.ID)
			if err != nil {
				return nil, err
			}
			if minU >= val-tol {
				frozen[l.ID] = true
				bound[l.ID] = val
				newlyFrozen++
			}
		}
		if newlyFrozen == 0 {
			// Numerical safety: freeze the most utilized link to ensure
			// progress.
			worst, worstU := -1, -1.0
			for e, u := range util {
				if !frozen[e] && u > worstU {
					worst, worstU = e, u
				}
			}
			frozen[worst] = true
			bound[worst] = val
		}
	}
	if lastX == nil {
		val, x, err := solveLevel(-1)
		if err != nil {
			return nil, err
		}
		levels = append(levels, val)
		lastX = x
	}
	return &LexMinMaxResult{Flow: ly.extract(lastX), Bound: bound, Levels: levels}, nil
}

func utilOf(ly *lpLayout, g *graph.Graph, x []float64) []float64 {
	util := make([]float64, g.NumLinks())
	for _, l := range g.Links() {
		var f float64
		for ti := range ly.dests {
			f += x[ly.varOf(ti, l.ID)]
		}
		util[l.ID] = f / l.Cap
	}
	return util
}

// MaxUtil returns the maximum entry of a utilization vector (helper for
// tests and experiments).
func MaxUtil(util []float64) float64 {
	m := math.Inf(-1)
	for _, u := range util {
		if u > m {
			m = u
		}
	}
	return m
}
