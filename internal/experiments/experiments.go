// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each Run* function takes a context (cancelling
// it aborts any optimization in flight) and produces a structured result
// with a Format method that prints the same rows/series the paper
// reports. All lists them in the paper's order; cmd/spef and the golden
// test drive them through it. Sweeps over independent cells (Fig. 10's
// load grid, the failure study) execute concurrently over
// Options.Workers workers with order-independent results.
//
// The per-experiment index lives in DESIGN.md; paper-vs-measured numbers
// are recorded in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"io"
	"math"
	"slices"
	"text/tabwriter"

	spef "repro"
)

// Result is a finished experiment; Format prints the rows or series
// the paper reports.
type Result interface{ Format(io.Writer) }

// Experiment is one entry of the experiment table.
type Experiment struct {
	// Name selects the experiment on the command line.
	Name string
	// Alias, when set, is a second name for the same runner.
	Alias string
	// Run regenerates the experiment.
	Run func(context.Context, Options) (Result, error)
}

// All is the experiment table in the paper's presentation order, the
// extensions beyond the paper (see EXPERIMENTS.md) last. fig6 and fig7
// share one runner, which prints both figures.
var All = []Experiment{
	{Name: "table1", Run: result(RunTable1)},
	{Name: "fig2", Run: result(RunFig2)},
	{Name: "fig3", Run: result(RunFig3)},
	{Name: "fig6", Alias: "fig7", Run: result(RunFig67)},
	{Name: "table3", Run: result(RunTable3)},
	{Name: "fig9", Run: result(RunFig9)},
	{Name: "fig10", Run: result(RunFig10)},
	{Name: "fig11", Run: result(RunFig11)},
	{Name: "table5", Run: result(RunTable5)},
	{Name: "fig12", Run: result(RunFig12)},
	{Name: "fig13", Run: result(RunFig13)},
	{Name: "control", Run: result(RunControl)},
	{Name: "failure", Run: result(RunFailure)},
}

// result adapts a runner returning its own result type to the table's.
func result[T Result](run func(context.Context, Options) (T, error)) func(context.Context, Options) (Result, error) {
	return func(ctx context.Context, o Options) (Result, error) { return run(ctx, o) }
}

// Lookup returns the experiment a name or alias selects.
func Lookup(name string) (Experiment, bool) {
	for _, e := range All {
		if name == e.Name || (e.Alias != "" && name == e.Alias) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Names returns every experiment name and alias, sorted.
func Names() []string {
	var names []string
	for _, e := range All {
		names = append(names, e.Name)
		if e.Alias != "" {
			names = append(names, e.Alias)
		}
	}
	slices.Sort(names)
	return names
}

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
