// Package bench is the machine-readable performance harness behind
// `spef bench`: it times the shortest-path kernels on the paper's
// benchmark topologies — the pre-workspace "alloc" implementations
// against the workspace "reuse" implementations, and forced-sequential
// against parallel per-destination evaluation — verifies that the fast
// paths stay bit-identical to the slow ones (MLU parity, stream vs
// batch), measures the control-plane delta engine's per-event-type
// latency and steady-state allocs/op (the servelatency surface behind
// `spef serve`), and serializes everything as a BENCH_*.json report. Committed
// baselines (BENCH_baseline.json) record the perf trajectory; Check
// compares a fresh run against a baseline and fails on regression.
package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	spef "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/graph"
	"repro/internal/objective"
	"repro/internal/par"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Schema identifies the report format.
const Schema = "spef-bench/v1"

// Options tunes a harness run.
type Options struct {
	// Quick restricts the run to the small topology set and shorter
	// measurement windows — the CI smoke configuration.
	Quick bool
	// Log, when non-nil, receives one line per completed measurement.
	Log io.Writer
}

// Measure is one timed configuration.
type Measure struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	N           int     `json:"n"`
}

// Kernel compares a slow-path and a fast-path implementation of one
// primitive on one topology.
type Kernel struct {
	// Name is "<topology>/<kernel>" ("cernet2/dijkstra", ...).
	Name string `json:"name"`
	// BaseLabel/FastLabel name the two configurations ("alloc" vs
	// "reuse", "sequential" vs "parallel").
	BaseLabel string  `json:"base_label"`
	FastLabel string  `json:"fast_label"`
	Base      Measure `json:"base"`
	Fast      Measure `json:"fast"`
	// Speedup is the median over timePair's alternating rounds of the
	// round's base ns/op over its fast ns/op — machine-normalized, so
	// baselines recorded on one machine check meaningfully on another.
	Speedup float64 `json:"speedup"`
	// Portable marks kernels whose speedup and allocs/op are
	// machine-portable (both paths single-threaded, so machine speed
	// and core count cancel in the ratio). Kernels whose fast path
	// fans out over the parallel pool scale with GOMAXPROCS; they are
	// recorded for trend inspection but exempt from Check's gates.
	Portable bool `json:"portable"`
}

// Parity is one bit-identity check between a fast path and its oracle.
type Parity struct {
	Name string `json:"name"`
	// Detail describes what was compared.
	Detail string `json:"detail"`
	// BitIdentical reports whether every compared float64 matched
	// bitwise.
	BitIdentical bool `json:"bit_identical"`
}

// Report is the serialized output of one harness run.
type Report struct {
	Schema    string   `json:"schema"`
	GoVersion string   `json:"go_version"`
	GOOS      string   `json:"goos"`
	GOARCH    string   `json:"goarch"`
	Quick     bool     `json:"quick"`
	Kernels   []Kernel `json:"kernels"`
	Parity    []Parity `json:"parity"`
	// Serve records the control-plane daemon's per-event-type latency
	// distribution and steady-state allocs/op (see ServeLatency).
	Serve []ServeLatency `json:"serve,omitempty"`
	// Sweep records the sharded sweep pipeline's throughput and its
	// overhead versus the single-process batch path (see
	// SweepThroughput); the accompanying shard-merge-vs-single parity
	// entry guards bit identity.
	Sweep []SweepThroughput `json:"sweep,omitempty"`
}

// pairRounds is how many alternating base/fast rounds timePair runs.
const pairRounds = 7

// timePair times a kernel's base and fast paths in pairRounds
// alternating rounds of budget/pairRounds each — base, fast, base,
// fast, ... — after one warm-up call of each, so workspace arenas reach
// steady state. A burst of machine noise then lands on the rounds of
// both paths alike, not on one path's whole measurement. Each Measure
// sums its path's rounds; the speed-up is the median of the per-round
// base/fast ratios, which one disturbed round cannot move.
func timePair(budget time.Duration, base, fast func()) (b, f Measure, speedup float64) {
	base()
	fast()
	var ratios [pairRounds]float64
	for r := range ratios {
		rb := timeRound(budget/pairRounds, base)
		rf := timeRound(budget/pairRounds, fast)
		ratios[r] = rb.NsPerOp / rf.NsPerOp
		b, f = b.plus(rb), f.plus(rf)
	}
	slices.Sort(ratios[:])
	return b, f, ratios[pairRounds/2]
}

// plus pools two measurements of one path: total time, allocations and
// bytes over total calls.
func (m Measure) plus(o Measure) Measure {
	n := m.N + o.N
	per := func(a, b float64) float64 { return (a*float64(m.N) + b*float64(o.N)) / float64(n) }
	return Measure{
		NsPerOp:     per(m.NsPerOp, o.NsPerOp),
		AllocsPerOp: per(m.AllocsPerOp, o.AllocsPerOp),
		BytesPerOp:  per(m.BytesPerOp, o.BytesPerOp),
		N:           n,
	}
}

// timeKernel times one kernel's two paths with timePair.
func timeKernel(name, baseLabel, fastLabel string, portable bool, budget time.Duration, base, fast func()) Kernel {
	b, f, speedup := timePair(budget, base, fast)
	return Kernel{
		Name:      name,
		BaseLabel: baseLabel,
		FastLabel: fastLabel,
		Base:      b,
		Fast:      f,
		Speedup:   speedup,
		Portable:  portable,
	}
}

// timeRound times fn over roughly the given wall-clock budget, in
// doubling batches until the budget is consumed, with allocation
// counters read around the whole measured region.
func timeRound(budget time.Duration, fn func()) Measure {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n, batch := 0, 1
	for time.Since(start) < budget {
		for i := 0; i < batch; i++ {
			fn()
		}
		n += batch
		if batch < 1<<18 {
			batch *= 2
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return Measure{
		NsPerOp:     float64(elapsed.Nanoseconds()) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesPerOp:  float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		N:           n,
	}
}

// instance is one benchmark topology with the derived inputs the
// kernels need.
type instance struct {
	name   string
	g      *graph.Graph
	tm     *traffic.Matrix
	w      []float64 // varied link weights
	v      []float64 // second-weight-like costs
	dst    int
	dag    *graph.DAG
	demand []float64
	ratio  []float64
	dags   map[int]*graph.DAG
}

func newInstance(name string, g *graph.Graph, tm *traffic.Matrix) (*instance, error) {
	in := &instance{name: name, g: g, tm: tm}
	in.w = make([]float64, g.NumLinks())
	in.v = make([]float64, g.NumLinks())
	for i := range in.w {
		in.w[i] = 1 + float64(i%7)
		in.v[i] = float64(i%5) / 3
	}
	dests := tm.Destinations()
	if len(dests) == 0 {
		return nil, fmt.Errorf("bench: instance %s has no demands", name)
	}
	in.dst = dests[0]
	dag, err := graph.BuildDAG(g, in.w, in.dst, 0.3)
	if err != nil {
		return nil, err
	}
	in.dag = dag
	in.demand = tm.ToDestination(in.dst)
	in.ratio, _ = graph.ExponentialSplits(g, dag, in.v)
	in.dags = make(map[int]*graph.DAG, len(dests))
	for _, t := range dests {
		d, err := graph.BuildDAG(g, in.w, t, 0.3)
		if err != nil {
			return nil, err
		}
		in.dags[t] = d
	}
	return in, nil
}

// instances builds the benchmark topology set: CERNET2 (the paper's
// larger evaluation network) always, plus a 50-node random network on
// full runs.
func instances(quick bool) ([]*instance, error) {
	var out []*instance
	cg := topo.Cernet2()
	vols := traffic.SyntheticVolumes(7, cg.NumNodes(), 0.5)
	for i := range vols {
		vols[i] += 1
	}
	ctm, err := traffic.Gravity(vols, cg.TotalCapacity()*0.15)
	if err != nil {
		return nil, err
	}
	ci, err := newInstance("cernet2", cg, ctm)
	if err != nil {
		return nil, err
	}
	out = append(out, ci)
	if quick {
		return out, nil
	}
	rg, err := topo.Random(1, 50, 200)
	if err != nil {
		return nil, err
	}
	rvols := traffic.SyntheticVolumes(3, rg.NumNodes(), 0.5)
	for i := range rvols {
		rvols[i] += 1
	}
	rtm, err := traffic.Gravity(rvols, rg.TotalCapacity()*0.1)
	if err != nil {
		return nil, err
	}
	ri, err := newInstance("rand50", rg, rtm)
	if err != nil {
		return nil, err
	}
	out = append(out, ri)
	return out, nil
}

// Run executes the full harness and returns the report.
func Run(opts Options) (*Report, error) {
	rep := &Report{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Quick:     opts.Quick,
	}
	logf := func(format string, args ...any) {
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		}
	}
	ins, err := instances(opts.Quick)
	if err != nil {
		return nil, err
	}
	budget := 500 * time.Millisecond
	if opts.Quick {
		budget = 60 * time.Millisecond
	}
	for _, in := range ins {
		ks, err := kernelSuite(in, budget)
		if err != nil {
			return nil, err
		}
		for _, k := range ks {
			rep.Kernels = append(rep.Kernels, k)
			logf("%-28s %-10s %12.0f ns/op %8.1f allocs/op | %-10s %12.0f ns/op %8.1f allocs/op | %5.2fx",
				k.Name, k.BaseLabel, k.Base.NsPerOp, k.Base.AllocsPerOp,
				k.FastLabel, k.Fast.NsPerOp, k.Fast.AllocsPerOp, k.Speedup)
		}
	}
	rks, rpar, err := robustSampleBench(budget)
	if err != nil {
		return nil, err
	}
	for _, k := range rks {
		rep.Kernels = append(rep.Kernels, k)
		logf("%-28s %-10s %12.0f ns/op %8.1f allocs/op | %-10s %12.0f ns/op %8.1f allocs/op | %5.2fx",
			k.Name, k.BaseLabel, k.Base.NsPerOp, k.Base.AllocsPerOp,
			k.FastLabel, k.Fast.NsPerOp, k.Fast.AllocsPerOp, k.Speedup)
	}
	par1, err := parityChecks(ins[0])
	if err != nil {
		return nil, err
	}
	rep.Parity = append(rep.Parity, par1...)
	pub, err := publicParity(opts.Quick)
	if err != nil {
		return nil, err
	}
	rep.Parity = append(rep.Parity, pub...)
	rep.Parity = append(rep.Parity, rpar...)
	for _, p := range rep.Parity {
		logf("parity %-32s bit-identical=%v (%s)", p.Name, p.BitIdentical, p.Detail)
	}
	if rep.Serve, err = serveLatency(opts.Quick); err != nil {
		return nil, err
	}
	for _, s := range rep.Serve {
		logf("serve  %-28s %6d events %10d ns p50 %10d ns p99 %8.1f allocs/op",
			s.Name, s.Events, s.P50Ns, s.P99Ns, s.AllocsPerOp)
	}
	sweeps, sweepPar, err := sweepThroughput()
	if err != nil {
		return nil, err
	}
	rep.Sweep = sweeps
	rep.Parity = append(rep.Parity, sweepPar...)
	for _, p := range sweepPar {
		logf("parity %-32s bit-identical=%v (%s)", p.Name, p.BitIdentical, p.Detail)
	}
	for _, s := range rep.Sweep {
		logf("sweep  %-28s %6d cells %8.1f cells/s single %8.1f cells/s sharded | efficiency %.2f",
			s.Name, s.Cells, s.SingleCellsPerSec, s.ShardCellsPerSec, s.ShardEfficiency)
	}
	return rep, nil
}

// kernelSuite measures the alloc-vs-reuse kernels and the sequential-
// vs-parallel distribution on one instance.
func kernelSuite(in *instance, budget time.Duration) ([]Kernel, error) {
	g, w, v, dst, dag := in.g, in.w, in.v, in.dst, in.dag
	ws := graph.NewWorkspace(g)
	flowBuf := make([]float64, g.NumLinks())

	kernel := func(name, baseLabel, fastLabel string, portable bool, base, fast func()) Kernel {
		return timeKernel(in.name+"/"+name, baseLabel, fastLabel, portable, budget, base, fast)
	}

	out := []Kernel{
		kernel("dijkstra", "alloc", "reuse", true,
			func() { legacyDijkstraTo(g, w, dst) },
			func() {
				if _, err := ws.DijkstraTo(g, w, dst); err != nil {
					panic(err)
				}
			}),
		kernel("bellmanford", "alloc", "reuse", true,
			func() {
				if _, err := graph.BellmanFordTo(g, w, dst); err != nil {
					panic(err)
				}
			},
			func() {
				if _, err := ws.BellmanFordTo(g, w, dst); err != nil {
					panic(err)
				}
			}),
		kernel("dag", "alloc", "reuse", true,
			func() { legacyBuildDAG(g, w, dst, 0.3) },
			func() {
				if _, err := ws.BuildDAG(g, w, dst, 0.3); err != nil {
					panic(err)
				}
			}),
		kernel("splits", "alloc", "reuse", true,
			func() { legacyExponentialSplits(g, dag, v) },
			func() { ws.ExponentialSplits(g, dag, v) }),
		kernel("propagate", "alloc", "reuse", true,
			func() {
				if _, err := legacyPropagateDown(g, dag, in.demand, in.ratio); err != nil {
					panic(err)
				}
			},
			func() {
				if err := ws.PropagateDownInto(g, dag, in.demand, in.ratio, flowBuf); err != nil {
					panic(err)
				}
			}),
	}

	// One local-search weight perturbation: full re-evaluation of every
	// destination against the incremental path, which re-routes only the
	// destinations the change can affect and keeps the rest bit-for-bit
	// (see internal/localsearch). Both paths are single-threaded, so the
	// speedup is machine-portable and gated by Check. The two closures
	// walk the same deterministic (link, weight) cycle.
	lsw := make([]float64, g.NumLinks())
	for i := range lsw {
		lsw[i] = 1
	}
	evFull, err := delta.NewEvaluator(g, in.tm, lsw)
	if err != nil {
		return nil, err
	}
	evInc, err := delta.NewEvaluator(g, in.tm, lsw)
	if err != nil {
		return nil, err
	}
	wFull := append([]float64(nil), lsw...)
	lsStep := func(step int) (link int, weight float64) {
		return step * 7 % g.NumLinks(), float64(1 + step%19)
	}
	var stepFull, stepInc int
	out = append(out, kernel("lsweightchange", "full-reeval", "incremental", true,
		func() {
			e, wv := lsStep(stepFull)
			stepFull++
			wFull[e] = wv
			if err := evFull.Reevaluate(wFull); err != nil {
				panic(err)
			}
		},
		func() {
			e, wv := lsStep(stepInc)
			stepInc++
			if err := evInc.SetWeight(e, wv); err != nil {
				panic(err)
			}
		}))

	// Full Algorithm 3 over every destination: the legacy sequential
	// loop against the workspace + parallel fan-out.
	// Not machine-portable: the fast path fans out over the parallel
	// pool, so both the speedup and the allocs/op scale with the
	// machine's core count. Recorded for trends, exempt from Check.
	out = append(out, kernel("trafficdist", "legacy-seq", "ws-parallel", false,
		func() {
			if _, err := legacyTrafficDistribution(g, in.dags, in.tm, v); err != nil {
				panic(err)
			}
		},
		func() {
			if _, err := core.TrafficDistribution(g, in.dags, in.tm, v); err != nil {
				panic(err)
			}
		}))

	// The explicit-path surfaces (Yen enumeration, the MPLS path LP).
	eks, err := explicitKernels(in, budget)
	if err != nil {
		return nil, err
	}
	out = append(out, eks...)
	return out, nil
}

// parityChecks verifies the fast paths against the legacy slow path on
// one instance, bitwise.
func parityChecks(in *instance) ([]Parity, error) {
	g := in.g
	var out []Parity

	slow, err := legacyTrafficDistribution(g, in.dags, in.tm, in.v)
	if err != nil {
		return nil, err
	}
	fast, err := core.TrafficDistribution(g, in.dags, in.tm, in.v)
	if err != nil {
		return nil, err
	}
	same := len(slow.Total) == len(fast.Total)
	if same {
		for e := range slow.Total {
			if slow.Total[e] != fast.Total[e] {
				same = false
				break
			}
		}
	}
	mluSlow := objective.MLU(g, slow.Total)
	mluFast := objective.MLU(g, fast.Total)
	out = append(out, Parity{
		Name:         in.name + "/mlu-vs-slow-path",
		Detail:       fmt.Sprintf("Algorithm 3 per-link flow and MLU, workspace+parallel vs legacy sequential (MLU %v vs %v)", mluFast, mluSlow),
		BitIdentical: same && mluSlow == mluFast,
	})

	// Sequential vs parallel through the production path.
	prev := par.SetExtraWorkers(0)
	seq, errSeq := core.TrafficDistribution(g, in.dags, in.tm, in.v)
	par.SetExtraWorkers(8)
	pll, errPar := core.TrafficDistribution(g, in.dags, in.tm, in.v)
	par.SetExtraWorkers(prev)
	if errSeq != nil {
		return nil, errSeq
	}
	if errPar != nil {
		return nil, errPar
	}
	same = true
	for e := range seq.Total {
		if seq.Total[e] != pll.Total[e] {
			same = false
			break
		}
	}
	out = append(out, Parity{
		Name:         in.name + "/parallel-vs-sequential",
		Detail:       "Algorithm 3 per-link flow, 8 extra workers vs forced sequential",
		BitIdentical: same,
	})

	// Local search: a long incremental perturbation sequence must leave
	// the evaluator bit-identical — weights, DAGs, splits, flows, totals
	// and cost — to a fresh full evaluation of the final weight vector.
	lsw := make([]float64, g.NumLinks())
	for i := range lsw {
		lsw[i] = 1
	}
	inc, err := delta.NewEvaluator(g, in.tm, lsw)
	if err != nil {
		return nil, err
	}
	for step := 0; step < 64; step++ {
		if err := inc.SetWeight(step*7%g.NumLinks(), float64(1+step%19)); err != nil {
			return nil, err
		}
	}
	full, err := delta.NewEvaluator(g, in.tm, inc.Weights())
	if err != nil {
		return nil, err
	}
	parityErr := inc.Equal(full)
	detail := "localsearch evaluator state after 64 incremental weight changes vs full re-evaluation"
	if parityErr != nil {
		detail += ": " + parityErr.Error()
	}
	out = append(out, Parity{
		Name:         in.name + "/ls-incremental-vs-full",
		Detail:       detail,
		BitIdentical: parityErr == nil,
	})

	eps, err := explicitParity(in)
	if err != nil {
		return nil, err
	}
	out = append(out, eps...)
	return out, nil
}

// publicParity runs a small scenario grid through the public engine and
// checks stream-vs-batch bit identity (metric values per cell).
func publicParity(quick bool) ([]Parity, error) {
	n, d, err := spef.Fig1Example()
	if err != nil {
		return nil, err
	}
	iters := 2000
	if quick {
		iters = 800
	}
	grid := spef.Grid{
		Topologies: []spef.Topology{{Name: "fig1", Network: n, Demands: d}},
		Loads:      []float64{0.2, 0.3},
		Routers:    []spef.Router{spef.OSPF(nil), spef.SPEF(spef.WithMaxIterations(iters))},
	}
	cells, err := grid.Scenarios()
	if err != nil {
		return nil, err
	}
	batch, err := spef.RunScenarios(context.Background(), cells, spef.RunOptions{Workers: 4})
	if err != nil {
		return nil, err
	}
	streamed := make([]spef.ScenarioResult, len(cells))
	for r := range spef.StreamScenarios(context.Background(), cells, spef.RunOptions{Workers: 4}) {
		streamed[r.Index] = r
	}
	same := true
	for i := range batch {
		if batch[i].Scenario != streamed[i].Scenario {
			same = false
			break
		}
		for _, name := range batch[i].MetricNames {
			a, _ := batch[i].Metric(name)
			b, ok := streamed[i].Metric(name)
			if !ok || (a != b && !(a != a && b != b)) {
				same = false
				break
			}
		}
	}
	return []Parity{{
		Name:         "fig1/stream-vs-batch",
		Detail:       fmt.Sprintf("metric values across %d cells, StreamScenarios vs RunScenarios", len(cells)),
		BitIdentical: same,
	}}, nil
}

// WriteJSON serializes the report (stable field order, indented).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadFile loads a previously written report.
func ReadFile(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: %s has schema %q, want %q", path, r.Schema, Schema)
	}
	return &r, nil
}

// Check compares a fresh run against a committed baseline and returns
// an error describing every regression:
//
//   - a parity check that is no longer bit-identical always fails;
//   - a portable kernel's fast-path allocs/op must not exceed the
//     baseline's (beyond rounding slack);
//   - a portable kernel's speedup (slow path / fast path, measured in
//     the same process, so machine speed cancels) must stay within tol
//     of the baseline's — the machine-portable form of "no >tol ns/op
//     regression vs the committed baseline";
//   - with absolute=true, the fast path's raw ns/op must additionally
//     stay within tol of the baseline's (meaningful only on the
//     machine class that recorded the baseline).
//
// Kernels marked non-portable (parallel fast paths, which scale with
// core count) are recorded for trend inspection but not gated.
func Check(cur, base *Report, tol float64, absolute bool) error {
	var problems []string
	for _, p := range cur.Parity {
		if !p.BitIdentical {
			problems = append(problems, fmt.Sprintf("parity %s: not bit-identical (%s)", p.Name, p.Detail))
		}
	}
	baseKernels := make(map[string]Kernel, len(base.Kernels))
	for _, k := range base.Kernels {
		baseKernels[k.Name] = k
	}
	for _, k := range cur.Kernels {
		b, ok := baseKernels[k.Name]
		if !ok {
			continue // new kernel: no baseline yet
		}
		if !k.Portable || !b.Portable {
			continue // core-count-dependent: trend data only
		}
		if k.Fast.AllocsPerOp > b.Fast.AllocsPerOp+0.5 {
			problems = append(problems, fmt.Sprintf(
				"%s: fast-path allocs/op %.1f exceeds baseline %.1f", k.Name, k.Fast.AllocsPerOp, b.Fast.AllocsPerOp))
		}
		if k.Speedup < b.Speedup*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: speedup %.2fx fell more than %.0f%% below baseline %.2fx", k.Name, k.Speedup, tol*100, b.Speedup))
		}
		if absolute && k.Fast.NsPerOp > b.Fast.NsPerOp*(1+tol) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f ns/op regressed more than %.0f%% over baseline %.0f ns/op", k.Name, k.Fast.NsPerOp, tol*100, b.Fast.NsPerOp))
		}
	}
	// Serve-latency gates: every baselined event type must still be
	// measured (with events actually applied), steady-state allocs/op
	// must not grow (machine-portable — the warm engine's zero/low-alloc
	// property, not machine speed), and with absolute=true the raw p99
	// must hold too.
	curServe := make(map[string]ServeLatency, len(cur.Serve))
	for _, s := range cur.Serve {
		curServe[s.Name] = s
	}
	for _, b := range base.Serve {
		s, ok := curServe[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("serve %s: baselined event type was not measured", b.Name))
			continue
		}
		if s.Events <= 0 {
			problems = append(problems, fmt.Sprintf("serve %s: no events applied", b.Name))
			continue
		}
		if s.AllocsPerOp > b.AllocsPerOp+0.5 {
			problems = append(problems, fmt.Sprintf(
				"serve %s: allocs/op %.1f exceeds baseline %.1f", b.Name, s.AllocsPerOp, b.AllocsPerOp))
		}
		if absolute && b.P99Ns > 0 && s.P99Ns > int64(float64(b.P99Ns)*(1+tol)) {
			problems = append(problems, fmt.Sprintf(
				"serve %s: p99 %d ns regressed more than %.0f%% over baseline %d ns", b.Name, s.P99Ns, tol*100, b.P99Ns))
		}
	}
	// Sweep gates: every baselined surface must still be measured with
	// cells actually run, and the shard pipeline's efficiency ratio
	// (measured in one process, so machine speed cancels) must stay
	// within tol of the baseline's. Raw cells/sec is machine-dependent
	// and only gated in absolute mode.
	curSweep := make(map[string]SweepThroughput, len(cur.Sweep))
	for _, s := range cur.Sweep {
		curSweep[s.Name] = s
	}
	for _, b := range base.Sweep {
		s, ok := curSweep[b.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("sweep %s: baselined surface was not measured", b.Name))
			continue
		}
		if s.Cells <= 0 {
			problems = append(problems, fmt.Sprintf("sweep %s: no cells run", b.Name))
			continue
		}
		if s.ShardEfficiency < b.ShardEfficiency*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"sweep %s: shard efficiency %.2f fell more than %.0f%% below baseline %.2f",
				b.Name, s.ShardEfficiency, tol*100, b.ShardEfficiency))
		}
		if absolute && s.SingleCellsPerSec < b.SingleCellsPerSec*(1-tol) {
			problems = append(problems, fmt.Sprintf(
				"sweep %s: %.1f cells/s regressed more than %.0f%% below baseline %.1f cells/s",
				b.Name, s.SingleCellsPerSec, tol*100, b.SingleCellsPerSec))
		}
	}
	if len(problems) > 0 {
		msg := "bench: regression vs baseline:"
		for _, p := range problems {
			msg += "\n  - " + p
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
