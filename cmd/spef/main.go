// Command spef regenerates the paper's tables and figures, runs
// declarative scenario suites, and optimizes or generates single
// networks. Usage:
//
//	spef [-quick] [-workers N] <experiment> [<experiment> ...]
//	spef [-quick] all
//	spef suite -spec FILE [-format table|jsonl|csv] [-o FILE] [-stream]
//	spef suite -topologies abilene -loads 0.12,0.14 -routers invcap,spef ...
//	spef suite -spec FILE -shard 0/4 -o shard0.jsonl [-checkpoint N]
//	spef merge [-format jsonl|csv|table] [-o FILE] shard0.jsonl shard1.jsonl ...
//	spef serve [-addr HOST:PORT] [-load SPEC,...]
//	spef critlinks -topology SPEC [-failures single|dual|srlg:file=F] [-router SPEC] [-iters N] [-workers N]
//	spef catalog [-markdown]
//	spef bench [-quick] [-o FILE] [-check BASELINE [-tol F] [-abs]]
//	spef optimize [-in FILE] [-beta B] [-iters N] [-load L] [-integer]
//	spef topogen [-net SPEC] [-demands SPEC] [-load L]
//
// Experiments: table1 fig2 fig3 fig6 fig7 table3 fig9 fig10 fig11
// table5 fig12 fig13. fig6 and fig7 share one runner and print both.
// The suite subcommand sweeps a Grid declared in JSON or flags over the
// topology/demand registry and writes results through a sink (aligned
// table, JSONL, or CSV), optionally streaming each cell as it
// completes. With -shard i/n it runs one deterministic slice of the
// sweep into a checkpointed, resumable shard file; merge validates a
// complete shard set and reassembles the single-process output (see
// the "Sharded sweeps" section of DESIGN.md). The critlinks subcommand
// ranks a topology's failure units (duplex pairs, pairs of pairs, or
// SRLG groups) by the MLU regret their failure inflicts on deployed
// ECMP weights — see the "Multi-failure robustness" section of
// DESIGN.md. The catalog subcommand lists every registered topology,
// generator, importer, demand generator, temporal demand sequence,
// router, failure set and metric with its parameters. The bench
// subcommand runs the kernel timing harness. The topogen subcommand
// writes a registry topology and its demands in the package's text
// network format, and optimize reads that format, optimizes SPEF's two
// weights per link and compares the result with InvCap OSPF.
// Interrupting the process (SIGINT/SIGTERM) cancels the running
// experiment cleanly; an interrupted shard resumes from its last
// checkpoint.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/experiments"
)

// commands are the subcommands `spef <name> [flags]` dispatches to, in
// the order usage lists them. usage holds each one's synopses.
var commands = []struct {
	name  string
	usage []string
	run   func(args []string) error
}{
	{"suite", []string{
		"suite -spec FILE | -topologies T,... -routers R,... [flags]",
		"suite ... -shard I/N -o SHARD.jsonl [-checkpoint N]",
	}, suiteMain},
	{"merge", []string{"merge [-format jsonl|csv|table] [-o FILE] SHARD.jsonl ..."}, mergeMain},
	{"serve", []string{"serve [-addr HOST:PORT] [-load SPEC,...]"}, serveMain},
	{"critlinks", []string{"critlinks -topology SPEC [-failures single|dual|srlg:file=F] [-router SPEC] [-iters N] [-workers N]"}, critlinksMain},
	{"catalog", []string{"catalog [-markdown]"}, catalogMain},
	{"bench", []string{"bench [-quick] [-o FILE] [-check BASELINE [-tol F] [-abs]]"}, benchMain},
	{"optimize", []string{"optimize [-in FILE] [-beta B] [-iters N] [-load L] [-integer]"}, optimizeMain},
	{"topogen", []string{"topogen [-net SPEC] [-demands SPEC] [-load L] [-seed S] [-nodes N -links L -clusters C]"}, topogenMain},
}

func main() {
	for _, c := range commands {
		if len(os.Args) > 1 && os.Args[1] == c.name {
			if err := c.run(os.Args[2:]); err != nil {
				fmt.Fprintf(os.Stderr, "spef %s: %v\n", c.name, err)
				os.Exit(1)
			}
			return
		}
	}
	quick := flag.Bool("quick", false, "reduced-fidelity run (fast)")
	workers := flag.Int("workers", 0, "concurrent cells in sweeping experiments (0 = GOMAXPROCS)")
	flag.Usage = func() { usage(os.Stderr) }
	flag.Parse()
	if flag.NArg() == 0 {
		usage(os.Stderr)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Stdout, flag.Args(), experiments.Options{Quick: *quick, Workers: *workers}); err != nil {
		fmt.Fprintln(os.Stderr, "spef:", err)
		os.Exit(1)
	}
}

// run runs the named experiments in order, "all" alone naming the
// whole table, and prints each under a "== name (N.Ns) ==" header.
func run(ctx context.Context, w io.Writer, names []string, opts experiments.Options) error {
	if len(names) == 1 && names[0] == "all" {
		names = nil
		for _, e := range experiments.All {
			names = append(names, e.Name)
		}
	}
	for _, name := range names {
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try: %v)", name, experiments.Names())
		}
		start := time.Now()
		res, err := e.Run(ctx, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintf(w, "== %s (%.1fs) ==\n", name, time.Since(start).Seconds())
		res.Format(w)
		fmt.Fprintln(w)
	}
	return nil
}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: spef [-quick] [-workers N] <experiment>... | all")
	for _, c := range commands {
		for _, u := range c.usage {
			fmt.Fprintln(w, "       spef", u)
		}
	}
	fmt.Fprintf(w, "experiments: %v\n", experiments.Names())
}
