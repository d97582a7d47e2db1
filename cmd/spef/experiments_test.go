package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var quick = experiments.Options{Quick: true}

// header matches the line spef prints before each experiment; the
// timing varies from run to run.
var header = regexp.MustCompile(`(?m)^== ([a-z0-9]+) \([0-9.]+s\) ==\n`)

// runExperiments runs names through the CLI's experiment path and
// returns the names of the headers printed and the output with every
// header's timing stripped.
func runExperiments(t *testing.T, names ...string) ([]string, string) {
	t.Helper()
	var out bytes.Buffer
	if err := run(t.Context(), &out, names, quick); err != nil {
		t.Fatal(err)
	}
	var printed []string
	for _, m := range header.FindAllStringSubmatch(out.String(), -1) {
		printed = append(printed, m[1])
	}
	return printed, header.ReplaceAllString(out.String(), "== $1 ==\n")
}

// golden is what spef prints for name at quick fidelity, timing
// stripped: its header, its runner's committed golden output, and a
// blank line.
func golden(t *testing.T, name, runner string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", "quick", runner+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	return "== " + name + " ==\n" + string(b) + "\n"
}

// TestRunFig7IsFig6: fig7 names the runner that prints Figs. 6 and 7,
// and running it prints that runner's output once, under fig7.
func TestRunFig7IsFig6(t *testing.T) {
	printed, out := runExperiments(t, "fig7")
	if len(printed) != 1 || printed[0] != "fig7" {
		t.Fatalf("printed headers %v, want [fig7]", printed)
	}
	if want := golden(t, "fig7", "fig6"); out != want {
		t.Errorf("spef -quick fig7 printed\n%s\nwant\n%s", out, want)
	}
}

// TestRunAllInPaperOrder: `spef all` runs the 13 experiments once each
// in the paper's order, extensions last, and prints their goldens.
func TestRunAllInPaperOrder(t *testing.T) {
	order := []string{
		"table1", "fig2", "fig3", "fig6", "table3", "fig9", "fig10",
		"fig11", "table5", "fig12", "fig13", "control", "failure",
	}
	printed, out := runExperiments(t, "all")
	if strings.Join(printed, " ") != strings.Join(order, " ") {
		t.Fatalf("spef all ran %v, want %v", printed, order)
	}
	var want strings.Builder
	for _, name := range order {
		want.WriteString(golden(t, name, name))
	}
	if out != want.String() {
		t.Error("spef -quick all drifted from the concatenated quick goldens")
	}
}

// knownExperiments is the sorted list of names spef accepts.
const knownExperiments = "[control failure fig10 fig11 fig12 fig13 fig2 fig3 fig6 fig7 fig9 table1 table3 table5]"

// TestRunUnknownExperiment: an unknown name fails with the sorted list
// of known names.
func TestRunUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	err := run(t.Context(), &out, []string{"fig99"}, quick)
	want := `unknown experiment "fig99" (try: ` + knownExperiments + ")"
	if err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
	if out.Len() != 0 {
		t.Errorf("printed %q before failing", out.String())
	}
}

// TestUsageListsExperiments: the usage lists every experiment name and
// alias after the subcommands.
func TestUsageListsExperiments(t *testing.T) {
	var buf bytes.Buffer
	usage(&buf)
	if !strings.HasSuffix(buf.String(), "\nexperiments: "+knownExperiments+"\n") {
		t.Errorf("usage does not end with the experiment list:\n%s", buf.String())
	}
	for _, c := range commands {
		if !strings.Contains(buf.String(), "spef "+c.name+" ") {
			t.Errorf("usage does not list spef %s", c.name)
		}
	}
}
