package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	spef "repro"
)

// suiteMain runs `spef suite`: a declarative scenario sweep parsed from
// a JSON spec file or assembled from flags, written through a sink.
func suiteMain(args []string) error {
	fs := flag.NewFlagSet("suite", flag.ExitOnError)
	var (
		specFile   = fs.String("spec", "", "JSON suite spec file (flags below override its fields when set)")
		topologies = fs.String("topologies", "", "comma-separated topology specs (abilene, rand:n=50,links=242,seed=1, waxman:n=50, zoo:file=net.graphml, sndlib:file=net.txt, ...; see `spef catalog`)")
		demands    = fs.String("demands", "", "demand spec overriding topology defaults: a generator (ft:seed=N, gravity, uniform) or a temporal sequence expanding a time axis (gravity-diurnal:steps=24, ft-diurnal)")
		loads      = fs.String("loads", "", "comma-separated network loads")
		betas      = fs.String("betas", "", "comma-separated beta values for beta-configurable routers")
		routers    = fs.String("routers", "", "comma-separated router specs (spef, invcap, peft, optimal, ospf-ls, ospf-ls-robust, spef:iters=N, ospf-ls:iters=N,seed=S; see `spef catalog`)")
		metrics    = fs.String("metrics", "", "comma-separated metric names (default: mlu,utility,mean_util,p95_util,mm1_delay,max_stretch)")
		failures   failureFlag
		iters      = fs.Int("iters", 0, "Algorithm 1 iteration budget for optimizing routers (0 = automatic)")
		workers    = fs.Int("workers", 0, "concurrent cells (0 = GOMAXPROCS)")
		reuse      = fs.Bool("reuse-weights", false, "optimize each (topology, failure, router) group once — at the first load and, for temporal demand sequences, the first step — and re-simulate those weights across the load/time axes")
		format     = fs.String("format", "table", "output format: table|jsonl|csv")
		out        = fs.String("o", "", "output file (default stdout)")
		stream     = fs.Bool("stream", false, "write each cell as it completes (completion order) instead of the deterministic batch order")
		progress   = fs.Bool("progress", false, "report cell completion on stderr even when it is not a terminal (default: auto on TTYs)")
		quiet      = fs.Bool("quiet", false, "suppress the progress meter")
		shard      = fs.String("shard", "", "run only shard i/n of the sweep (0-based, e.g. 0/4) into the -o file, checkpointed for resume; combine shard files with `spef merge`")
		checkpoint = fs.Int("checkpoint", spef.DefaultCheckpointEvery, "with -shard: flush and checkpoint the shard file every N completed cells (a killed shard loses at most N cells)")
	)
	fs.Var(&failures, "failures", "add failure variants of every topology: bare -failures (or =single) for the single-link axis, =dual for pairs of links, =srlg:file=GROUPS.json for shared-risk groups")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: spef suite -spec FILE | -topologies T,... -routers R,... [flags]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Flag parsing stops at the first positional argument, so a typo
	// like "-failures dual" (boolean-style flag; the value needs
	// "-failures=dual") would silently run the wrong sweep and drop
	// every flag after it. Refuse leftovers instead.
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (boolean-style flags take values as -flag=value, e.g. -failures=dual)", fs.Arg(0))
	}

	suite := &spef.Suite{}
	if *specFile != "" {
		data, err := os.ReadFile(*specFile)
		if err != nil {
			return err
		}
		if suite, err = spef.ParseSuite(data); err != nil {
			return err
		}
	}
	if *topologies != "" {
		suite.Topologies = splitList(*topologies)
	}
	if *demands != "" {
		suite.Demands = *demands
	}
	if *routers != "" {
		suite.Routers = splitList(*routers)
	}
	if *metrics != "" {
		suite.Metrics = splitList(*metrics)
	}
	if *loads != "" {
		var err error
		if suite.Loads, err = parseFloats(*loads); err != nil {
			return fmt.Errorf("-loads: %w", err)
		}
	}
	if *betas != "" {
		var err error
		if suite.Betas, err = parseFloats(*betas); err != nil {
			return fmt.Errorf("-betas: %w", err)
		}
	}
	if failures.set {
		suite.Failures = failures.spec
	}
	if *iters > 0 {
		suite.MaxIterations = *iters
	}
	if *workers > 0 {
		suite.Workers = *workers
	}
	if *reuse {
		suite.ReuseWeights = true
	}

	meter := progressMeter(*progress, *quiet)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *shard != "" {
		sp, err := spef.ParseShardSpec(*shard)
		if err != nil {
			return err
		}
		if *out == "" {
			return fmt.Errorf("-shard requires -o (the shard's JSONL output file)")
		}
		formatSet := false
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "format" {
				formatSet = true
			}
		})
		if formatSet && *format != "jsonl" {
			return fmt.Errorf("-shard always writes JSONL (render the merged sweep with `spef merge -format %s`)", *format)
		}
		rep, err := suite.RunShard(ctx, sp, *out, spef.ShardOptions{
			CheckpointEvery: *checkpoint,
			Progress:        meter,
		})
		if err != nil {
			return err
		}
		// Unconditional one-line summary: scripts (and CI) assert on the
		// resumed/ran counters.
		fmt.Fprintf(os.Stderr, "spef suite: shard %s: %d/%d cells resumed=%d ran=%d failed=%d -> %s\n",
			rep.Shard, rep.Resumed+rep.Ran, rep.ShardCells, rep.Resumed, rep.Ran, rep.Failed, rep.Path)
		return runOutcome(ctx, rep.Failed)
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	names, err := suite.MetricNames()
	if err != nil {
		return err
	}
	var sink spef.Sink
	switch *format {
	case "table":
		sink = spef.NewTableSink(w, names...)
	case "jsonl":
		sink = spef.NewJSONLSink(w)
	case "csv":
		sink = spef.NewCSVSink(w, names...)
	default:
		return fmt.Errorf("unknown -format %q (want table, jsonl or csv)", *format)
	}

	cells, err := suite.Scenarios()
	if err != nil {
		return err
	}
	opts, err := suite.RunOptions()
	if err != nil {
		return err
	}
	if meter != nil {
		fmt.Fprintf(os.Stderr, "suite: %d cells\n", len(cells))
		opts.Progress = meter
	}

	if *stream {
		failed := 0
		for r := range spef.StreamScenarios(ctx, cells, opts) {
			if r.Err != nil {
				failed++
			}
			if err := sink.Write(r); err != nil {
				return err
			}
		}
		if err := sink.Flush(); err != nil {
			return err
		}
		return runOutcome(ctx, failed)
	}
	results, err := spef.RunScenarios(ctx, cells, opts)
	if err != nil {
		return err
	}
	failed := 0
	for _, r := range results {
		if r.Err != nil {
			failed++
		}
	}
	if err := spef.WriteResults(sink, results); err != nil {
		return err
	}
	return runOutcome(ctx, failed)
}

func runOutcome(ctx context.Context, failed int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "spef suite: %d cell(s) failed (see the error column)\n", failed)
	}
	return nil
}

// failureFlag is the -failures flag: boolean-style bare "-failures"
// selects the single-link axis (failures "single"), while
// "-failures=dual" and "-failures=srlg:file=..." select the
// multi-failure sets.
type failureFlag struct {
	spec string
	set  bool
}

func (f *failureFlag) String() string { return f.spec }

// IsBoolFlag lets bare "-failures" parse without a value (the flag
// package hands Set the literal "true").
func (f *failureFlag) IsBoolFlag() bool { return true }

func (f *failureFlag) Set(v string) error {
	f.set = true
	switch v {
	case "true":
		f.spec = "single"
	case "false":
		f.spec = ""
	default:
		f.spec = v
	}
	return nil
}

func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		// Parameterized specs embed commas ("rand:n=50,links=242"):
		// fragments that open with a key=value pair — no colon, or the
		// first '=' before the first ':' ("accept=tabu:tenure=8") —
		// re-attach to the previous spec. New specs are a bare name or
		// open with "name:".
		if v = strings.TrimSpace(v); v == "" {
			continue
		}
		eq, colon := strings.IndexByte(v, '='), strings.IndexByte(v, ':')
		if len(out) > 0 && eq >= 0 && (colon < 0 || eq < colon) {
			out[len(out)-1] += "," + v
			continue
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) ([]float64, error) {
	var out []float64
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v == "" {
			continue
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q", v)
		}
		out = append(out, f)
	}
	return out, nil
}
