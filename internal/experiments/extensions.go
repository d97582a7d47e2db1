package experiments

// Extension experiments beyond the paper's tables and figures:
//
//   - RunControl quantifies the control-plane cost of SPEF's "one more
//     weight": LSA flooding message counts and payload volume versus
//     plain OSPF (the paper's conclusion asks for exactly this
//     complexity analysis "in network environment with OSPF").
//   - RunFailure studies robustness to single link failures: SPEF
//     forwarding with stale weights (routers re-run Dijkstra on the new
//     topology but keep the configured weights, as a real deployment
//     would until re-optimization) versus full re-optimization versus
//     OSPF.

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	spef "repro"
	"repro/internal/lsa"
	"repro/internal/routing"
	"repro/internal/topo"
)

// ControlResult reports LSA flooding cost per network.
type ControlResult struct {
	Rows []ControlRow
}

// ControlRow is one network's control-plane accounting.
type ControlRow struct {
	ID string
	// Messages is the LSA transmissions to flood one full origination
	// (identical for OSPF and SPEF: same LSAs, bigger payload).
	Messages int
	// OSPFWords and SPEFWords are flooded payload volumes in 8-byte
	// words.
	OSPFWords int
	SPEFWords int
	// OverheadPct is the SPEF payload overhead over OSPF in percent.
	OverheadPct float64
}

// RunControl measures flooding cost on every Table III network.
func RunControl(_ context.Context, _ Options) (*ControlResult, error) {
	nets, err := topo.Table3Networks()
	if err != nil {
		return nil, err
	}
	res := &ControlResult{}
	for _, n := range nets {
		g := n.G
		w := routing.InvCapWeights(g)
		v := make([]float64, g.NumLinks())
		ospf := lsa.New(g, false)
		if _, err := ospf.OriginateAll(w, v); err != nil {
			return nil, fmt.Errorf("control %s: %w", n.ID, err)
		}
		spef := lsa.New(g, true)
		if _, err := spef.OriginateAll(w, v); err != nil {
			return nil, fmt.Errorf("control %s: %w", n.ID, err)
		}
		row := ControlRow{
			ID:        n.ID,
			Messages:  spef.Messages,
			OSPFWords: ospf.PayloadWords,
			SPEFWords: spef.PayloadWords,
		}
		row.OverheadPct = 100 * float64(spef.PayloadWords-ospf.PayloadWords) / float64(ospf.PayloadWords)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Format prints the flooding-cost table.
func (r *ControlResult) Format(w io.Writer) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "Net. ID\tLSA msgs\tOSPF payload (words)\tSPEF payload\toverhead %")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%.1f\n",
			row.ID, row.Messages, row.OSPFWords, row.SPEFWords, row.OverheadPct)
	}
	tw.Flush()
}

// FailureResult reports single-link-failure robustness on Abilene.
type FailureResult struct {
	// Load is the pre-failure network load.
	Load float64
	// Rows is one entry per failed duplex pair that leaves the demands
	// routable.
	Rows []FailureRow
}

// FailureRow compares routing schemes after one failure.
type FailureRow struct {
	// FailedLink names the failed duplex pair by endpoints.
	FailedLink string
	// MLU per scheme; Utility per scheme (may be -Inf).
	OSPFMLU, StaleMLU, ReoptMLU             float64
	OSPFUtility, StaleUtility, ReoptUtility float64
}

// RunFailure evaluates every single duplex-pair failure on Abilene at
// load 0.14 on the public Scenario surface: a single-link-failure Grid
// comparing OSPF (InvCap reconverges on the surviving topology), SPEF
// with stale weights (SPEFWithWeights — Dijkstra re-run, intact-
// topology weights projected onto the survivors), and SPEF fully
// re-optimized. Failures that disconnect a demand are skipped by the
// grid expansion, like the paper's protocol would. Cells are
// independent, so the sweep runs concurrently over Options.Workers
// workers; rows come back in failure order regardless of worker count.
func RunFailure(ctx context.Context, opts Options) (*FailureResult, error) {
	t, err := spef.ResolveTopology("abilene")
	if err != nil {
		return nil, err
	}
	const load = 0.14
	tm, err := t.Demands.ScaledToLoad(t.Network, load)
	if err != nil {
		return nil, err
	}
	it1, it2 := opts.iters(t.Network.NumNodes())
	spefOpts := []spef.Option{spef.WithMaxIterations(it1), spef.WithSplitIterations(it2)}
	p, err := spef.Optimize(ctx, t.Network, tm, spefOpts...)
	if err != nil {
		return nil, err
	}
	grid := spef.Grid{
		Topologies: []spef.Topology{{Name: "Abilene", Network: t.Network, Demands: tm}},
		Routers: []spef.Router{
			spef.OSPF(nil),
			spef.Named(routerStale, spef.SPEFWithWeights(p.FirstWeights(), p.SecondWeights())),
			spef.Named(routerReopt, spef.SPEF(spefOpts...)),
		},
		Failures: "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		return nil, err
	}
	// Keep only the failure variants (the intact cells exist for the
	// grid's baseline semantics); quick mode trims to the first few
	// failed links.
	var failCells []spef.Scenario
	links := 0
	lastLink := ""
	for _, c := range cells {
		if c.FailedLink == "" {
			continue
		}
		if c.FailedLink != lastLink {
			lastLink = c.FailedLink
			links++
			if opts.Quick && links > 3 {
				break
			}
		}
		failCells = append(failCells, c)
	}
	results, err := spef.RunScenarios(ctx, failCells, spef.RunOptions{
		Workers: opts.Workers,
		Metrics: []spef.Metric{spef.MLUMetric(), spef.UtilityMetric()},
	})
	if err != nil {
		return nil, err
	}
	res := &FailureResult{Load: load}
	rows := map[string]*FailureRow{}
	for _, r := range results {
		row, ok := rows[r.FailedLink]
		if !ok {
			row = &FailureRow{FailedLink: r.FailedLink}
			rows[r.FailedLink] = row
			res.Rows = append(res.Rows, FailureRow{}) // reserve order slot
			res.Rows[len(res.Rows)-1].FailedLink = r.FailedLink
		}
		switch r.Router {
		case routerReopt:
			// Re-optimization may legitimately fail (infeasible load on
			// the degraded topology): record the sentinel values.
			if r.Err != nil {
				row.ReoptMLU = math.NaN()
				row.ReoptUtility = math.Inf(-1)
				continue
			}
			row.ReoptMLU = r.MLU()
			row.ReoptUtility = r.Utility()
		case routerStale:
			if r.Err != nil {
				return nil, fmt.Errorf("failure %s (%s): %w", r.FailedLink, r.Router, r.Err)
			}
			row.StaleMLU = r.MLU()
			row.StaleUtility = r.Utility()
		default:
			if r.Err != nil {
				return nil, fmt.Errorf("failure %s (%s): %w", r.FailedLink, r.Router, r.Err)
			}
			row.OSPFMLU = r.MLU()
			row.OSPFUtility = r.Utility()
		}
	}
	for i := range res.Rows {
		res.Rows[i] = *rows[res.Rows[i].FailedLink]
	}
	return res, nil
}

// Router display names of the failure study's schemes.
const (
	routerStale = "stale-SPEF"
	routerReopt = "reopt-SPEF"
)

// Format prints the robustness table.
func (r *FailureResult) Format(w io.Writer) {
	fmt.Fprintf(w, "# single duplex failures on Abilene at load %.2f\n", r.Load)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "failed\tOSPF MLU\tstale-SPEF MLU\treopt-SPEF MLU\tOSPF util\tstale util\treopt util")
	for _, row := range r.Rows {
		fmt.Fprintf(tw, "%s\t%.3f\t%.3f\t%.3f\t%s\t%s\t%s\n",
			row.FailedLink, row.OSPFMLU, row.StaleMLU, row.ReoptMLU,
			fmtVal(row.OSPFUtility), fmtVal(row.StaleUtility), fmtVal(row.ReoptUtility))
	}
	tw.Flush()
}
