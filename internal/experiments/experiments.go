// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each Run* function takes a context (cancelling
// it aborts any optimization in flight) and produces a structured result
// with a Format method that prints the same rows/series the paper
// reports; cmd/spef and the top-level benchmarks drive them. Sweeps over
// independent cells (Fig. 10's load grid, the failure study) execute
// concurrently over Options.Workers workers with order-independent
// results.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"text/tabwriter"

	spef "repro"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Options tunes experiment fidelity.
type Options struct {
	// Quick trades accuracy for speed (used by tests); default is the
	// full-fidelity run used for EXPERIMENTS.md.
	Quick bool
	// Workers bounds concurrent cells in sweeping experiments
	// (<= 0 selects GOMAXPROCS).
	Workers int
}

// iters returns (algorithm 1, algorithm 2) iteration budgets for a
// network of the given size. Larger networks get smaller subgradient
// budgets: the refinement stage (FirstWeightOptions.NoRefine doc)
// guarantees solution quality, so the subgradient phase only needs to
// warm-start it.
func (o Options) iters(nodes int) (int, int) {
	if o.Quick {
		return 800, 300
	}
	switch {
	case nodes <= 30:
		return 6000, 2000
	case nodes <= 60:
		return 3000, 1200
	default:
		return 1500, 800
	}
}

// Series is one named curve: paired x/y samples.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// formatSeries prints aligned columns: x then one column per series.
func formatSeries(w io.Writer, xLabel string, series []Series) {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "%s", xLabel)
	for _, s := range series {
		fmt.Fprintf(tw, "\t%s", s.Name)
	}
	fmt.Fprintln(tw)
	if len(series) == 0 {
		tw.Flush()
		return
	}
	for i := range series[0].X {
		fmt.Fprintf(tw, "%.4g", series[0].X[i])
		for _, s := range series {
			if i < len(s.Y) {
				fmt.Fprintf(tw, "\t%s", fmtVal(s.Y[i]))
			} else {
				fmt.Fprint(tw, "\t-")
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

func fmtVal(v float64) string {
	switch {
	case math.IsInf(v, -1):
		return "-inf"
	case math.IsInf(v, 1):
		return "+inf"
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// networkTM builds the canonical traffic matrix of a Table III network;
// the seeded construction lives in traffic.CanonicalMatrix so the public
// topology registry serves the exact same workloads.
func networkTM(id string, g *graph.Graph) (*traffic.Matrix, error) {
	return traffic.CanonicalMatrix(id, g)
}

// buildSPEF runs the full SPEF pipeline with the experiment's iteration
// budget and beta=1 (the evaluation's utility objective, Section V-B).
func buildSPEF(ctx context.Context, g *graph.Graph, tm *traffic.Matrix, beta float64, opts Options) (*core.Protocol, error) {
	it1, it2 := opts.iters(g.NumNodes())
	obj, err := objective.NewQBeta(beta, g.NumLinks(), nil)
	if err != nil {
		return nil, err
	}
	return core.Build(ctx, g, tm, obj, core.Options{
		First:  core.FirstWeightOptions{MaxIters: it1},
		Second: core.SecondWeightOptions{MaxIters: it2},
	})
}

// optimizeSPEF runs spef.Optimize with the experiment's iteration
// budget and the given beta.
func optimizeSPEF(ctx context.Context, n *spef.Network, d *spef.Demands, beta float64, opts Options) (*spef.Protocol, error) {
	it1, it2 := opts.iters(n.NumNodes())
	return spef.Optimize(ctx, n, d, spef.WithBeta(beta), spef.WithMaxIterations(it1), spef.WithSplitIterations(it2))
}

// evaluateOSPF reports the traffic distribution of d under InvCap OSPF.
func evaluateOSPF(ctx context.Context, n *spef.Network, d *spef.Demands) (*spef.TrafficReport, error) {
	routes, err := spef.OSPF(nil).Routes(ctx, n, d)
	if err != nil {
		return nil, err
	}
	return routes.Evaluate(d)
}

// table3Net returns one Table III network by ID.
func table3Net(id string) (*graph.Graph, error) {
	nets, err := topo.Table3Networks()
	if err != nil {
		return nil, err
	}
	for _, n := range nets {
		if n.ID == id {
			return n.G, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown network %q", id)
}
