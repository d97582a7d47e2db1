package localsearch

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/par"
	"repro/internal/traffic"
)

// ErrBadInput reports inconsistent search options. Evaluator errors
// wrap delta.ErrBadInput instead.
var ErrBadInput = errors.New("localsearch: bad input")

// neighborhood is the number of candidate single-link moves Search
// scores per round, fanned out over the internal/par worker pool. The
// search trajectory is identical for any worker count.
const neighborhood = 16

// Options tunes Search. Zero values select the documented defaults.
type Options struct {
	// MaxEvals bounds the number of candidate evaluations (default
	// 2000). Every scored neighbor and every applied perturbation counts
	// as one evaluation, against every configured failure state at once.
	MaxEvals int
	// WeightMax is the largest integer weight the search assigns
	// (>= 1; 0 selects the default 20 — Fortz-Thorup use small integer
	// ranges; negative is an error).
	WeightMax int
	// Seed drives the randomized neighborhood sampling and plateau
	// perturbations.
	Seed int64
	// InitWeights is the starting weight vector (default all-1). The
	// hill climb never accepts a worsening move, so the result is never
	// costlier than the start — seeding with InvCap weights guarantees
	// the optimized configuration at least matches the deployed default.
	InitWeights []float64
	// Failures, when non-empty, turns on robust scoring: each entry is
	// a set of intact link IDs that fail together, and every candidate
	// weight vector is additionally evaluated with each set failed. A
	// failed link is one more weight, +Inf on the intact topology, so
	// it carries no flow and a move on it leaves that failure's state
	// as it is. Moves are accepted by the combined score. Every failure
	// must keep every positive demand routable (pre-filter with a
	// reachability check); a link ID out of range is an error.
	Failures [][]int
	// FailurePenalty is the weight rho of the mean failure-variant cost
	// in the robust score, cost_intact + rho * mean(cost_failures)
	// (> 0; 0 selects the default 1, negative or non-finite is an
	// error — to score the intact topology only, configure no
	// Failures). Ignored without Failures.
	FailurePenalty float64
	// Accept selects the move-acceptance rule. "" or "hill" is strict
	// hill climbing: only improving moves are applied, with random
	// multi-link perturbations after three stale rounds (the
	// Fortz-Thorup default). "tabu" applies the best candidate of every
	// round even when it worsens the score, marks the changed link tabu
	// for TabuTenure rounds, and admits a tabu move only by aspiration
	// (it beats the best score ever seen); when every candidate is tabu
	// without aspiration the overall best is taken anyway. The best-ever
	// vector is tracked separately under both rules, so tabu never
	// returns a worse result than its own trajectory found.
	Accept string
	// TabuTenure is the number of rounds a just-changed link stays tabu
	// (0 selects the default 8; negative is an error). Ignored unless
	// Accept is "tabu".
	TabuTenure int
}

// Result is the outcome of a Search.
type Result struct {
	// Weights is the best weight vector found, in the intact topology's
	// link ID space.
	Weights []float64
	// Cost is its Fortz-Thorup cost on the intact topology.
	Cost float64
	// Score is its search objective: equal to Cost without failures,
	// cost_intact + rho * mean(cost_failures) with them.
	Score float64
	// Evals is the number of candidate evaluations performed.
	Evals int
}

// Search runs Fortz-Thorup local search over integer link weights:
// round-based hill climbing over single-link weight changes with
// deterministic parallel candidate scoring and random multi-link
// perturbations on plateaus — or, with Options.Accept "tabu",
// best-of-round tabu acceptance over the same neighborhoods.
// Cancelling ctx aborts the search with an error wrapping the
// context's error.
func Search(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, opts Options) (*Result, error) {
	if opts.MaxEvals <= 0 {
		opts.MaxEvals = 2000
	}
	if opts.WeightMax < 0 {
		return nil, fmt.Errorf("%w: negative WeightMax %d", ErrBadInput, opts.WeightMax)
	}
	if opts.WeightMax == 0 {
		opts.WeightMax = 20
	}
	if !(opts.FailurePenalty >= 0) || math.IsInf(opts.FailurePenalty, 1) {
		return nil, fmt.Errorf("%w: FailurePenalty %v must be finite and >= 0", ErrBadInput, opts.FailurePenalty)
	}
	if opts.FailurePenalty == 0 {
		opts.FailurePenalty = 1
	}
	switch opts.Accept {
	case "", "hill", "tabu":
	default:
		return nil, fmt.Errorf("%w: unknown acceptance rule %q (want hill or tabu)", ErrBadInput, opts.Accept)
	}
	if opts.TabuTenure < 0 {
		return nil, fmt.Errorf("%w: negative TabuTenure %d", ErrBadInput, opts.TabuTenure)
	}
	tabu := opts.Accept == "tabu"
	tenure := opts.TabuTenure
	if tenure == 0 {
		tenure = 8
	}
	w0 := opts.InitWeights
	if w0 == nil {
		w0 = make([]float64, g.NumLinks())
		for i := range w0 {
			w0[i] = 1
		}
	}
	if len(w0) != g.NumLinks() {
		return nil, fmt.Errorf("%w: got %d initial weights for %d links", ErrBadInput, len(w0), g.NumLinks())
	}

	intact, err := delta.NewEvaluator(g, tm, w0)
	if err != nil {
		return nil, err
	}
	// One evaluator per state, all in intact link IDs: the intact
	// topology first, then one per failure with its links at +Inf.
	states := []*delta.Evaluator{intact}
	wf := make([]float64, len(w0))
	for fi, links := range opts.Failures {
		copy(wf, w0)
		for _, e := range links {
			if e < 0 || e >= g.NumLinks() {
				return nil, fmt.Errorf("%w: failure %d lists unknown link %d", ErrBadInput, fi, e)
			}
			wf[e] = math.Inf(1)
		}
		ev, err := delta.NewEvaluator(g, tm, wf)
		if err != nil {
			return nil, fmt.Errorf("localsearch: failure %d: %w", fi, err)
		}
		states = append(states, ev)
	}
	// failed reports whether link e is down in state i.
	failed := func(i, e int) bool { return i > 0 && slices.Contains(opts.Failures[i-1], e) }

	// score combines the states' current costs into the search
	// objective; scoreOf does the same for candidate costs.
	scoreOf := func(costs []float64) float64 {
		s := costs[0]
		if len(costs) > 1 {
			var sum float64
			for _, c := range costs[1:] {
				sum += c
			}
			s += opts.FailurePenalty * sum / float64(len(costs)-1)
		}
		return s
	}
	currentScore := func() float64 {
		costs := make([]float64, len(states))
		for i, ev := range states {
			costs[i] = ev.Cost()
		}
		return scoreOf(costs)
	}
	// apply pushes one accepted weight change into every state the link
	// survives in.
	apply := func(e int, w float64) error {
		for i, ev := range states {
			if failed(i, e) {
				continue
			}
			if err := ev.SetWeight(e, w); err != nil {
				return err
			}
		}
		return nil
	}

	// Per-worker scratch bundles, pooled: one Scratch per state plus
	// the per-candidate cost buffer, so the scoring loop allocates
	// nothing in steady state.
	type scratchSet struct {
		per   []*delta.Scratch
		costs []float64
	}
	pool := sync.Pool{New: func() any {
		set := &scratchSet{
			per:   make([]*delta.Scratch, len(states)),
			costs: make([]float64, len(states)),
		}
		for i, ev := range states {
			set.per[i] = ev.NewScratch()
		}
		return set
	}}

	type candidate struct {
		link  int
		w     float64
		score float64
		err   error
	}

	rng := rand.New(rand.NewSource(opts.Seed))
	cur := currentScore()
	best := intact.Weights()
	bestScore := cur
	evals := 1
	stale := 0
	cands := make([]candidate, 0, neighborhood)
	// Tabu bookkeeping: tabuUntil[link] is the first round the link may
	// be changed again without aspiration.
	var tabuUntil []int
	roundNo := 0
	if tabu {
		tabuUntil = make([]int, g.NumLinks())
	}

	for evals < opts.MaxEvals {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("localsearch: canceled after %d evaluations: %w", evals, err)
		}
		round := neighborhood
		if rest := opts.MaxEvals - evals; round > rest {
			round = rest
		}
		// Candidate generation stays on this goroutine so the rng
		// sequence — and with it the whole trajectory — is independent
		// of how many workers score the round.
		cands = cands[:0]
		for k := 0; k < round; k++ {
			cands = append(cands, candidate{
				link: rng.Intn(g.NumLinks()),
				w:    float64(1 + rng.Intn(opts.WeightMax)),
			})
		}
		par.Do(len(cands), func(k int) {
			b := pool.Get().(*scratchSet)
			defer pool.Put(b)
			c := &cands[k]
			costs := b.costs
			for i, ev := range states {
				if failed(i, c.link) {
					costs[i] = ev.Cost()
					continue
				}
				cost, err := ev.TryWeight(b.per[i], c.link, c.w)
				if err != nil {
					c.err = err
					return
				}
				costs[i] = cost
			}
			c.score = scoreOf(costs)
		})
		evals += len(cands)
		for k := range cands {
			if cands[k].err != nil {
				return nil, cands[k].err
			}
		}
		if tabu {
			// Pick the best admissible candidate: not tabu, or tabu but
			// beating the best score ever seen (aspiration). When all are
			// inadmissible, take the overall best — the standard all-tabu
			// escape. The move is applied unconditionally; worsening moves
			// are how tabu search leaves local minima, and the best-ever
			// vector below keeps the final answer safe.
			roundNo++
			bestK := -1
			for k := range cands {
				if tabuUntil[cands[k].link] > roundNo && cands[k].score >= bestScore-1e-12 {
					continue
				}
				if bestK < 0 || cands[k].score < cands[bestK].score {
					bestK = k
				}
			}
			if bestK < 0 {
				for k := range cands {
					if bestK < 0 || cands[k].score < cands[bestK].score {
						bestK = k
					}
				}
			}
			if err := apply(cands[bestK].link, cands[bestK].w); err != nil {
				return nil, err
			}
			tabuUntil[cands[bestK].link] = roundNo + tenure
			cur = currentScore()
			if cur < bestScore {
				bestScore = cur
				intact.CopyWeights(best)
			}
			continue
		}
		bestK := -1
		for k := range cands {
			if bestK < 0 || cands[k].score < cands[bestK].score {
				bestK = k
			}
		}
		if bestK >= 0 && cands[bestK].score < cur-1e-12 {
			if err := apply(cands[bestK].link, cands[bestK].w); err != nil {
				return nil, err
			}
			cur = currentScore()
			stale = 0
			if cur < bestScore {
				bestScore = cur
				intact.CopyWeights(best)
			}
			continue
		}
		stale++
		if stale >= 3 && evals < opts.MaxEvals {
			// Plateau: Fortz-Thorup's diversification — jump to a random
			// nearby vector and climb from there. The best-ever vector is
			// kept separately, so diversification can only help.
			for j := 0; j < 3 && evals < opts.MaxEvals; j++ {
				if err := apply(rng.Intn(g.NumLinks()), float64(1+rng.Intn(opts.WeightMax))); err != nil {
					return nil, err
				}
				evals++
			}
			cur = currentScore()
			if cur < bestScore {
				bestScore = cur
				intact.CopyWeights(best)
			}
			stale = 0
		}
	}

	// Report the best-ever vector's intact cost (the search may have
	// wandered off it during diversification).
	if err := intact.Reevaluate(best); err != nil {
		return nil, err
	}
	return &Result{
		Weights: best,
		Cost:    intact.Cost(),
		Score:   bestScore,
		Evals:   evals,
	}, nil
}
