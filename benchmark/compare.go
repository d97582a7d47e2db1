package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json, the benchmark's contract,
// that the comparison and the tests read.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareMain implements `benchmark compare -base DIR -head DIR`: each
// directory holds one result file per run, named
// "<workload>.<anything>.json"; files with the same name in both
// directories are one pair (run them alternating which side goes
// first).
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "directory of the parent commit's result files")
	head := fs.String("head", "", "directory of the change's result files")
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark contract with each metric's direction and bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *base == "" || *head == "" {
		fmt.Fprintln(stderr, "compare: -base and -head are required")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	b, err := readRuns(*base)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	h, err := readRuns(*head)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 1
	}
	rows := compareRuns(spec.EndToEnd, b, h)
	writeComparison(stdout, rows)
	for _, row := range rows {
		if row.Verdict == verdictRegression {
			return 1
		}
	}
	return 0
}

// readRuns loads every *.json result file of a directory, keyed by file
// name.
func readRuns(dir string) (map[string]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	runs := map[string]result{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		res, err := lastResult(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		runs[filepath.Base(p)] = res
	}
	return runs, nil
}

// Verdicts of a comparison row.
const (
	verdictGain       = "gain"
	verdictRegression = "regression"
	verdictUnresolved = "unresolved"
	verdictBetter     = "better, every run"
	verdictNoWorse    = "no regression"
)

// minPairs is the fewest pairs a gain may rest on, and gainShare the
// share of them the change must win.
const (
	minPairs  = 10
	gainShare = 0.9
)

// comparison is one (workload, metric) row.
type comparison struct {
	Workload, Metric string
	Pairs, Wins      int
	Base, Head       [3]float64 // first quartile, median, third quartile
	Verdict          string
}

// compareRuns judges every end-to-end metric on every workload. A gain
// needs at least minPairs pairs, the change winning gainShare of them
// (ties count for neither) and medians further apart than the parent's
// interquartile range. A regression is a median worse than the parent's
// by more than the metric's bound. Where the parent's own spread exceeds
// the bound, the row is unresolved unless every run of the change beats
// every run of the parent.
func compareRuns(metrics []specMetric, base, head map[string]result) []comparison {
	byWorkload := map[string][]string{} // workload -> file names in both
	for name := range base {
		if _, ok := head[name]; ok {
			w, _, _ := strings.Cut(name, ".")
			byWorkload[w] = append(byWorkload[w], name)
		}
	}
	workloads := make([]string, 0, len(byWorkload))
	for w := range byWorkload {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	var rows []comparison
	for _, w := range workloads {
		names := byWorkload[w]
		sort.Strings(names)
		for _, m := range metrics {
			lower := m.Better == "lower"
			better := func(a, b float64) bool { return lower && a < b || !lower && a > b }
			row := comparison{Workload: w, Metric: m.Name}
			var bs, hs []float64
			for _, n := range names {
				bm, okB := base[n].Metrics[m.Name]
				hm, okH := head[n].Metrics[m.Name]
				if !okB || !okH {
					continue
				}
				bs, hs = append(bs, bm.Value), append(hs, hm.Value)
				row.Pairs++
				if better(hm.Value, bm.Value) {
					row.Wins++
				}
			}
			if row.Pairs == 0 {
				continue
			}
			row.Base, row.Head = quartiles(bs), quartiles(hs)
			bound := 0.0
			if m.Bound != nil {
				bound = *m.Bound
			}
			row.Verdict = verdict(row, bs, hs, bound, better)
			rows = append(rows, row)
		}
	}
	return rows
}

func verdict(row comparison, bs, hs []float64, bound float64, better func(a, b float64) bool) string {
	bMed, hMed := row.Base[1], row.Head[1]
	iqr := row.Base[2] - row.Base[0]
	if row.Pairs >= minPairs && float64(row.Wins) >= gainShare*float64(row.Pairs) &&
		better(hMed, bMed) && math.Abs(hMed-bMed) > iqr {
		return verdictGain
	}
	allBetter := true
	for _, h := range hs {
		for _, b := range bs {
			allBetter = allBetter && better(h, b)
		}
	}
	if bMed != 0 && iqr/math.Abs(bMed) > bound {
		if allBetter {
			return verdictBetter
		}
		return verdictUnresolved
	}
	worse := (hMed - bMed) / math.Abs(bMed)
	if better(1, 0) { // higher is better: a drop is the worsening
		worse = -worse
	}
	if bMed != 0 && worse > bound {
		return verdictRegression
	}
	return verdictNoWorse
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(xs, n=4) computes them (exclusive
// method); a single sample is all three.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

func writeComparison(w io.Writer, rows []comparison) {
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tpairs\twins\tbase q1/med/q3\thead q1/med/q3\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%s\n",
			r.Workload, r.Metric, r.Pairs, r.Wins,
			r.Base[0], r.Base[1], r.Base[2], r.Head[0], r.Head[1], r.Head[2], r.Verdict)
	}
	tw.Flush()
}
