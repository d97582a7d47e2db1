package spef

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/delta"
	"repro/internal/routing"
	"repro/internal/scenario"
)

// CriticalLinksOptions tunes RankCriticalLinks.
type CriticalLinksOptions struct {
	// Failures selects the failure units to rank ("" or "single",
	// "dual", "srlg:file=PATH" — see ResolveFailureSet). "single" ranks
	// every duplex pair by the MLU regret of its own failure; "dual"
	// ranks every duplex pair by its worst pairing (its own failure, or
	// its failure combined with any one other pair's); "srlg" ranks the
	// file's shared-risk groups.
	Failures string
	// Weights is the OSPF/ECMP weight vector the analysis re-routes on
	// each degraded variant, in intact link IDs (nil selects InvCap —
	// the deployed Cisco default). Router, when non-nil, overrides it.
	Weights []float64
	// Router, when non-nil, supplies the weights by running the router
	// once on the intact topology and extracting its ECMP weight vector.
	// Only single-weight-vector ECMP schemes qualify (invcap/ospf and
	// the ospf-ls families); others return an error.
	Router Router
	// Workers bounds concurrent variant evaluations (<= 0 selects
	// GOMAXPROCS). Results are identical for any worker count.
	Workers int
}

// CriticalLink is one ranked failure unit: a duplex pair (single/dual
// modes) or an SRLG group, scored by the MLU regret its failure
// inflicts on the deployed weights.
type CriticalLink struct {
	// Rank is the 1-based position after sorting by regret, descending
	// (ties keep enumeration order).
	Rank int
	// Link names the unit: "A-B" for a duplex pair, the group name for
	// an SRLG.
	Link string
	// BaseMLU is the intact topology's MLU under the deployed weights —
	// identical on every row, carried per row so JSONL lines are
	// self-contained.
	BaseMLU float64
	// MLU is the unit's failure MLU: the MLU after failing the unit
	// (single/srlg), or the worst MLU over the unit's own failure and
	// every pairing with one other duplex pair (dual). +Inf when the
	// worst case strands a positive demand — an outage outranks any
	// finite congestion.
	MLU float64
	// Regret is MLU - BaseMLU: the congestion the failure adds.
	Regret float64
	// Routable reports whether the worst-case variant kept every
	// positive demand routable (false exactly when MLU is +Inf).
	Routable bool
	// WorstWith names the partner pair of the worst dual pairing ("" in
	// single/srlg modes, and in dual mode when the unit's own failure is
	// already the worst case).
	WorstWith string
	// Runtime is the unit's evaluation wall-clock time.
	Runtime time.Duration
}

// RankCriticalLinks scores every failure unit of the topology by the
// MLU regret the deployed weights suffer under its failure and returns
// the units sorted by regret, descending — Balon & Leduc's observation
// that links are not equally critical, as an analysis surface. Each
// variant is a failure what-if on one shared warm delta engine: the
// failed links go to weight +Inf in a per-worker scratch, and only the
// destinations whose DAG held them are re-routed, which is what makes
// the dual mode's O(pairs^2) sweep affordable. Units whose
// failure strands a positive demand rank with +Inf regret: where the
// scenario Grid must skip unroutable variants (no scheme can be
// compared on them), a criticality ranking wants them on top.
func RankCriticalLinks(ctx context.Context, n *Network, d *Demands, opts CriticalLinksOptions) ([]CriticalLink, error) {
	if err := checkDemands(n, d); err != nil {
		return nil, err
	}
	w := opts.Weights
	if opts.Router != nil {
		routes, err := opts.Router.Routes(ctx, n, d)
		if err != nil {
			return nil, err
		}
		if routes.ecmpWeights == nil {
			return nil, fmt.Errorf("%w: router %s records no single OSPF/ECMP weight vector to re-route on failure variants", ErrBadInput, routes.router)
		}
		w = routes.ecmpWeights
	}
	if w == nil {
		w = routing.InvCapWeights(n.g)
	}
	fset, err := ResolveFailureSet(opts.Failures)
	if err != nil {
		return nil, err
	}
	// Dual ranks each duplex pair by its worst pairing: its units are
	// the single ones.
	dual := fset != nil && fset.mode == failureModeDual
	if fset == nil || dual {
		fset = singleFailures
	}
	units, err := fset.units(n)
	if err != nil {
		return nil, err
	}
	if len(units) == 0 {
		return nil, nil
	}

	// One warm engine shared by every worker, which only reads it; each
	// worker checks a private scratch in and out of a channel.
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	en, err := delta.NewEngine(n.g, d.m, w)
	if err != nil {
		return nil, asBadInput(err)
	}
	base := en.Metrics().MLU
	scratches := make(chan *delta.Scratch, min(workers, len(units)))
	for range cap(scratches) {
		scratches <- en.NewScratch()
	}

	type outcome struct {
		row CriticalLink
		err error
	}
	job := func(ctx context.Context, i int) outcome {
		start := time.Now()
		row := CriticalLink{Link: units[i].label, BaseMLU: base}
		s := <-scratches
		defer func() { scratches <- s }()
		worst, routable := failMLU(en, s, units[i].links)
		worstWith := ""
		if dual && routable {
			// Worst pairing: scan partners in enumeration order; the
			// first unroutable partner is conclusive (+Inf beats any
			// finite MLU), strict > keeps ties on the earliest partner.
			var pair []int
			for j := range units {
				if j == i {
					continue
				}
				pair = append(append(pair[:0], units[i].links...), units[j].links...)
				m, ok := failMLU(en, s, pair)
				if m > worst {
					worst, worstWith = m, units[j].label
				}
				if !ok {
					break
				}
			}
		}
		row.MLU = worst
		row.Regret = worst - base
		row.Routable = !math.IsInf(worst, 1)
		row.WorstWith = worstWith
		row.Runtime = time.Since(start)
		return outcome{row: row}
	}

	outs := scenario.Run(ctx, len(units), opts.Workers, job,
		func(i int) outcome { return outcome{err: ctx.Err()} }, nil)
	rows := make([]CriticalLink, len(outs))
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		rows[i] = o.row
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Regret > rows[b].Regret })
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows, nil
}

// failMLU is the MLU the warm engine would report with links failed, a
// what-if into s that leaves the engine untouched. A failure the engine
// refuses strands a demand or isolates a node: an outage, +Inf and not
// routable.
func failMLU(en *delta.Engine, s *delta.Scratch, links []int) (mlu float64, routable bool) {
	m, err := en.WhatIfFailLinks(s, links...)
	if err != nil {
		return math.Inf(1), false
	}
	return m.MLU, true
}

// criticalLinkRecord is the JSONL row schema of WriteCriticalLinksJSONL
// (jsonFloat spells non-finite values, matching the result sink).
type criticalLinkRecord struct {
	Rank      int       `json:"rank"`
	Link      string    `json:"link"`
	BaseMLU   jsonFloat `json:"base_mlu"`
	MLU       jsonFloat `json:"mlu"`
	Regret    jsonFloat `json:"regret"`
	Routable  bool      `json:"routable"`
	WorstWith string    `json:"worst_with,omitempty"`
	RuntimeMS float64   `json:"runtime_ms"`
}

// WriteCriticalLinksJSONL renders a RankCriticalLinks result as one
// JSON object per line — the `spef critlinks` output format, with
// non-finite values spelled "nan"/"+inf"/"-inf" like the result sinks.
func WriteCriticalLinksJSONL(w io.Writer, rows []CriticalLink) error {
	for _, r := range rows {
		line, err := json.Marshal(criticalLinkRecord{
			Rank:      r.Rank,
			Link:      r.Link,
			BaseMLU:   jsonFloat(r.BaseMLU),
			MLU:       jsonFloat(r.MLU),
			Regret:    jsonFloat(r.Regret),
			Routable:  r.Routable,
			WorstWith: r.WorstWith,
			RuntimeMS: float64(r.Runtime) / float64(time.Millisecond),
		})
		if err != nil {
			return err
		}
		line = append(line, '\n')
		if _, err := w.Write(line); err != nil {
			return err
		}
	}
	return nil
}
