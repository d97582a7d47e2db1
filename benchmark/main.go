// Command benchmark is the end-to-end benchmark of the SPEF
// reproduction. It times the four operations users wait on, each a
// workload run in its own process:
//
//   - optimize: spef.Optimize, the paper's Algorithm 4, and Evaluate;
//   - ladder: a six-rung optimality ladder of routers;
//   - serve: `spef serve` control-plane requests over loopback HTTP;
//   - campaign: a sharded dual-failure sweep and a critical-link ranking.
//
// Every input is generated from -seed, every output is checked, and the
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// carrying the end-to-end metrics, or with -trace 1 the per-layer
// metrics of a run whose operations are decomposed into the layer calls
// the public API makes. Usage (from the repository root):
//
//	bash benchmark/run.sh -workload ladder -seed 3 -seconds 25 -trace 0
//	bash benchmark/run.sh -workload all -seed 3
//	bash benchmark/run.sh compare -base runs/base -head runs/head
//
// See README.md in this directory.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"time"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: optimize, ladder, serve, campaign, or all (each in its own process)")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := fs.Int("seconds", 25, "how long the measured loop of one workload runs")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run instead of end-to-end metrics")
	spans := fs.String("spans", "", "with -trace 1, write the recorded spans to this JSON file")
	outFile := fs.String("o", "", "also write the result line to this file")
	quick := fs.Bool("quick", false, "tiny inputs and two operations per workload (for tests)")
	update := fs.Bool("update-expected", false, "with -seed 1, record this run's outputs in testdata/expected_seed1.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 || *secs < 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1 and -seconds at least 1")
		return 2
	}
	if *workload == "all" {
		child := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*secs), "-trace", fmt.Sprint(*trace),
			"-quick=" + fmt.Sprint(*quick), "-update-expected=" + fmt.Sprint(*update)}
		return runAll(child, *spans, *outFile, stdout, stderr)
	}
	cfg := config{
		seed:   *seed,
		budget: time.Duration(*secs) * time.Second,
		quick:  *quick,
		trace:  *trace == 1,
	}
	exp, err := parseExpected(expectedJSON)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *update {
		exp = expected{} // record, do not check
	}
	// A workload runs on one thread. On a small VM whose vCPUs are shared
	// with noisy neighbours, a process that splits its work across two
	// threads waits for the slower one at every join: on a 2-vCPU VM,
	// single-threaded runs of one commit spread about half as much from
	// run to run as two-threaded ones.
	runtime.GOMAXPROCS(1)
	r, err := runWorkload(context.Background(), *workload, cfg, exp)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", *workload, err)
		return 1
	}
	res := r.result()
	for _, e := range r.errs {
		fmt.Fprintf(stderr, "benchmark: %s: %s\n", *workload, e)
	}
	if !cfg.trace {
		fmt.Fprintf(stderr, "%s, seed %d: %d latency samples, raw p50 %.4g ms, p75 %.4g ms, p90 %.4g ms, p95 %.4g ms, p99 %.4g ms; tail_ms is p%g\n",
			*workload, cfg.seed, len(r.lat), millis(quantile(r.lat, 0.5)), millis(quantile(r.lat, 0.75)), millis(quantile(r.lat, 0.9)),
			millis(quantile(r.lat, 0.95)), millis(quantile(r.lat, 0.99)), 100*r.tailQ)
		fmt.Fprintf(stderr, "%s, seed %d: raw set-up %.4g s, raw throughput %.4g/s; times scaled by %.4f (set-up %.4f) from %d (%d) calibration samples\n",
			*workload, cfg.seed, quantile(r.setups, 0.5).Seconds(), r.work/r.workTime.Seconds(),
			r.loopCal.factor(), r.setupCal.factor(), len(r.loopCal.samples), len(r.setupCal.samples))
	}
	if cfg.trace {
		fmt.Fprintf(stderr, "%s, seed %d, traced:\n%s", *workload, cfg.seed, r.rec.summary().table())
		if *spans != "" {
			if err := r.rec.writeSpans(*spans); err != nil {
				fmt.Fprintln(stderr, "benchmark:", err)
				return 1
			}
		}
	}
	if *update {
		if cfg.seed != 1 || !res.Correct {
			fmt.Fprintln(stderr, "benchmark: -update-expected needs a correct -seed 1 run")
			return 1
		}
		if err := recordExpected(r, *workload); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if *outFile != "" {
		if err := os.WriteFile(*outFile, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll re-executes the benchmark once per workload with the flags in
// child, so every workload has its own process (and its own peak RSS).
// It prints each child's output, then one combined line whose metrics
// are named "<workload>/<metric>".
func runAll(child []string, spans, outFile string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	for _, w := range workloadNames() {
		childArgs := append([]string{"-workload", w}, child...)
		if spans != "" {
			childArgs = append(childArgs, "-spans", spans+"."+w)
		}
		cmd := exec.Command(self, childArgs...)
		var out bytes.Buffer
		cmd.Stdout = io.MultiWriter(stdout, &out)
		cmd.Stderr = stderr
		runErr := cmd.Run()
		res, err := lastResult(out.Bytes())
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v (%v)\n", w, err, runErr)
			all.Correct = false
			continue
		}
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for name, m := range res.Metrics {
			all.Metrics[w+"/"+name] = m
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if outFile != "" {
		if err := os.WriteFile(outFile, append(line, '\n'), 0o644); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if !all.Correct {
		return 1
	}
	return 0
}

// lastResult parses the last non-empty line of a run's output.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	if len(last) == 0 {
		return result{}, fmt.Errorf("no result line")
	}
	var res result
	if err := json.Unmarshal(last, &res); err != nil {
		return result{}, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}
