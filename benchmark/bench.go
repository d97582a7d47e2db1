package main

import (
	"bufio"
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// config is what one workload run is told.
type config struct {
	seed   int64
	budget time.Duration // how long the measured loop runs
	quick  bool          // tiny inputs and two operations, for tests
	trace  bool          // per-layer metrics from a traced run
}

// run collects one workload run's measurements. Workloads fill it; the
// report is derived from it.
type run struct {
	config

	setups []time.Duration // every timed set-up
	lat    []time.Duration // per-operation latency samples
	tailQ  float64         // quantile of lat reported as tail_ms

	// throughput: work units completed over workTime.
	work     float64
	workTime time.Duration

	// Host speed while setting up and while measuring.
	setupCal, loopCal calibration

	attempted, failed int
	errs              []string

	outputs map[string][]string // operation outputs, keyed for the seed-1 check

	// Traced runs only.
	rec      *recorder
	untraced time.Duration      // summed wall time of untraced operations
	traced   time.Duration      // summed wall time of the same operations traced
	counts   map[string]float64 // per-operation counters, summed
	set      map[string]float64 // per-layer values a workload computes itself
	allocB   uint64             // bytes allocated by untraced operations
	allocN   uint64             // heap objects allocated by them
	allocOps int                // operations allocB and allocN cover
}

func newRun(cfg config) *run {
	r := &run{config: cfg, outputs: map[string][]string{}, counts: map[string]float64{}, set: map[string]float64{}}
	if cfg.trace {
		r.rec = newRecorder()
	}
	return r
}

// A run times its set-up at least minSetups times and until setupBudget
// has been spent in it, at most maxSetups times, and reports the median.
const (
	minSetups   = 5
	maxSetups   = 50
	setupBudget = time.Second
)

// timeSetup runs setup repeatedly (once when quick) and records each
// duration; the state of the last call stays in place. between, when
// non-nil, releases a set-up before the next one. Each set-up starts
// from a collected heap, so earlier set-ups' garbage is not charged to
// it.
func (r *run) timeSetup(setup func() error, between func()) error {
	var spent time.Duration
	for i := 0; i < maxSetups; i++ {
		if r.quick && i == 1 || !r.quick && i >= minSetups && spent >= setupBudget {
			break
		}
		if i > 0 && between != nil {
			between()
		}
		runtime.GC()
		start := time.Now()
		if err := setup(); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		r.setups = append(r.setups, d)
		spent += d
		r.setupCal.sample()
	}
	return nil
}

// quickOps is the operation count of a quick run.
const quickOps = 2

// loop runs op(0), op(1), ... until the budget is spent (at least one
// call; exactly quickOps when quick), sampling the host's speed between
// operations, and returns the loop's wall time without the sampling.
// A returned error counts the operation as failed.
func (r *run) loop(op func(i int) error) time.Duration {
	start := time.Now()
	for i := 0; ; i++ {
		if r.quick && i == quickOps || !r.quick && i > 0 && time.Since(start) >= r.budget {
			break
		}
		r.attempted++
		if err := op(i); err != nil {
			r.fail("operation %d: %v", i, err)
		}
		if r.loopCal.due() {
			r.loopCal.sample()
		}
	}
	return time.Since(start) - r.loopCal.spent
}

// fail counts one failed operation and keeps its message.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// output records an operation's outputs under key for the seed-1 check.
// An input that runs again must give the same outputs.
func (r *run) output(key string, vals ...string) {
	if old, ok := r.outputs[key]; ok && !slices.Equal(old, vals) {
		r.fail("input %s gave %v, then %v", key, old, vals)
	}
	r.outputs[key] = vals
}

// same fails the operation when a traced decomposition's outputs
// differ from the untraced operation's.
func (r *run) same(what string, untraced, traced []string) {
	if !slices.Equal(untraced, traced) {
		r.fail("%s: traced outputs %v differ from untraced %v", what, traced, untraced)
	}
}

// count adds to a per-operation counter of the traced run.
func (r *run) count(name string, v float64) { r.counts[name] += v }

// fbits renders a float exactly, so equal strings mean equal bits.
func fbits(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// timedOp runs an untraced and a traced version of one operation,
// accumulating the wall times the trace overhead is computed from and
// the untraced version's allocations. It alternates which version runs
// first, so that neither runs on caches the other warmed more often.
func (r *run) timedOp(untraced, traced func() error) error {
	runUntraced := func() error {
		b0, n0 := allocated()
		start := time.Now()
		err := untraced()
		r.untraced += time.Since(start)
		b1, n1 := allocated()
		r.allocB += b1 - b0
		r.allocN += n1 - n0
		return err
	}
	runTraced := func() error {
		start := time.Now()
		err := traced()
		r.traced += time.Since(start)
		return err
	}
	first, second := runUntraced, runTraced
	if r.allocOps%2 == 1 {
		first, second = runTraced, runUntraced
	}
	r.allocOps++
	if err := first(); err != nil {
		return err
	}
	return second()
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, the same for every
// workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms", "ms"},
	{"tail_ms", "ms"},
	{"throughput_per_s", "1/s"},
	{"peak_rss_mb", "MB"},
}

// spanTimes lists the spans reported as milliseconds per traced
// operation, named "<span>_ms": self time, or the whole duration where
// inclusive (a ladder cell, whose time is all in its children).
var spanTimes = []struct {
	span      string
	inclusive bool
}{
	{"core.first_weights", false},
	{"core.build_with_weights", false},
	{"core.flow", false},
	{"routing.build_ospf", false},
	{"localsearch.search", false},
	{"explicit.unit_flows", false},
	{"explicit.direct_flow", false},
	{"explicit.two_segment", false},
	{"explicit.colgen", false},
	{"mcf.frank_wolfe", false},
	{"scenario.evaluate", false},
	{"cell.invcap", true},
	{"cell.ospf_ls", true},
	{"cell.spef", true},
	{"cell.sr", true},
	{"cell.mpls_ksp", true},
	{"cell.optimal", true},
	{"sweep.run_shard", false},
	{"sweep.merge", false},
	{"critlinks.rank", false},
	{"scenario.collect", false},
	{"sink.jsonl_write", false},
}

// perOpCounts lists the counters reported per traced operation.
var perOpCounts = []metricDef{
	{"core.alg1_iters", "count"},
	{"core.alg2_iters", "count"},
	{"localsearch.search_calls", "count"},
	{"localsearch.evals", "count"},
	{"explicit.unit_flows_calls", "count"},
	{"explicit.sr_passes", "count"},
	{"explicit.colgen_rounds", "count"},
	{"explicit.colgen_paths", "count"},
	{"mcf.fw_iters", "count"},
	{"scenario.cells", "count"},
	{"failures.variants", "count"},
	{"sweep.bytes", "bytes"},
	{"critlinks.units", "count"},
}

// computed lists the per-layer values workloads derive themselves.
var computed = []metricDef{
	{"mcf.aon_ms", "ms"},
	{"mcf.aon_alg1_frac", "frac"},
	{"localsearch.useful_frac", "frac"},
	{"sweep.overhead_frac", "frac"},
	{"delta.set_weight.p50_us", "us"},
	{"delta.set_weight.p99_us", "us"},
	{"delta.set_demand.p50_us", "us"},
	{"delta.set_demand.p99_us", "us"},
	{"delta.link_flap.p50_us", "us"},
	{"delta.link_flap.p99_us", "us"},
	{"delta.whatif_weight.p50_us", "us"},
	{"delta.whatif_weight.p99_us", "us"},
	{"delta.whatif_link_down.p50_us", "us"},
	{"delta.whatif_link_down.p99_us", "us"},
	{"delta.allocs_per_event", "count"},
	{"serve.overhead_us", "us"},
}

// perLayer lists the metrics of a traced run, the same for every
// workload; a workload reports 0 for a layer it does not call.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace_overhead_frac", "frac"},
		{"alloc_mb_per_op", "MB"},
	}
	for _, s := range spanTimes {
		defs = append(defs, metricDef{s.span + "_ms", "ms"})
	}
	defs = append(defs, perOpCounts...)
	return append(defs, computed...)
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result derives the run's report: end-to-end metrics, or per-layer
// metrics when traced.
func (r *run) result() result {
	res := result{Attempted: r.attempted, Metrics: map[string]metricValue{}}
	if !r.trace {
		k := r.loopCal.factor()
		vals := map[string]float64{
			"setup_s":          quantile(r.setups, 0.5).Seconds() * r.setupCal.factor(),
			"op_ms":            millis(quantile(r.lat, 0.5)) * k,
			"tail_ms":          millis(quantile(r.lat, r.tailQ)) * k,
			"throughput_per_s": r.work / r.workTime.Seconds() / k,
			"peak_rss_mb":      peakRSSMB(),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
		}
		return r.finite(res)
	}
	ts := r.rec.summary()
	if ts.worstGap > selfSumTolerance {
		r.fail("span self times differ from their operation's wall time by %.1f%%", 100*ts.worstGap)
	}
	vals := map[string]float64{
		"trace_overhead_frac": r.traced.Seconds()/r.untraced.Seconds() - 1,
		"alloc_mb_per_op":     float64(r.allocB) / float64(max(r.allocOps, 1)) / (1 << 20),
	}
	ops := float64(max(ts.ops, 1))
	for _, s := range spanTimes {
		t := ts.self[s.span]
		if s.inclusive {
			t = ts.total[s.span]
		}
		vals[s.span+"_ms"] = float64(t) / 1e6 / ops
	}
	for _, c := range perOpCounts {
		vals[c.name] = r.counts[c.name] / ops
	}
	for _, c := range computed {
		vals[c.name] = r.set[c.name]
	}
	for _, d := range perLayer() {
		res.Metrics[d.name] = metricValue{vals[d.name], d.unit}
	}
	return r.finite(res)
}

// finite zeroes non-finite metric values, which JSON cannot carry, and
// counts each as a failure: a metric that did not measure is an error.
func (r *run) finite(res result) result {
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", name, m.Value)
			m.Value = 0
			res.Metrics[name] = m
		}
	}
	res.Failed, res.Correct = r.failed, r.failed == 0 && r.attempted > 0
	return res
}

// selfSumTolerance bounds how far an operation's summed span self times
// may stray from its traced wall time.
const selfSumTolerance = 0.05

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the q-quantile of the samples by linear
// interpolation between closest ranks (0 for no samples).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + time.Duration(float64(s[hi]-s[lo])*(pos-float64(lo)))
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// allocated returns the bytes and objects allocated so far.
func allocated() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc, ms.Mallocs
}

// workloads lists each workload's run function in the documented order.
var workloads = []struct {
	name  string
	drive func(ctx context.Context, r *run) error
}{
	{"optimize", runOptimize},
	{"ladder", runLadder},
	{"serve", runServe},
	{"campaign", runCampaign},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// runWorkload runs one workload and checks its outputs against the
// committed seed-1 values.
func runWorkload(ctx context.Context, name string, cfg config, exp expected) (*run, error) {
	i := slices.Index(workloadNames(), name)
	if i < 0 {
		return nil, fmt.Errorf("unknown workload %q (known: %s, all)", name, strings.Join(workloadNames(), ", "))
	}
	r := newRun(cfg)
	if err := workloads[i].drive(ctx, r); err != nil {
		return r, err
	}
	if cfg.seed == 1 {
		exp.check(r, name)
	}
	return r, nil
}
