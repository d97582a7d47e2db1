package experiments

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// quickRuns holds one single-worker quick run per experiment, made on
// first use. TestPaperGoldens byte-compares it and the TestRun* checks
// read it, so each experiment runs once at one worker per `go test`.
var quickRuns = func() map[string]func() (Result, error) {
	runs := map[string]func() (Result, error){}
	for _, e := range All {
		runs[e.Name] = sync.OnceValues(func() (Result, error) {
			return e.Run(context.Background(), Options{Quick: true, Workers: 1})
		})
	}
	return runs
}()

// quickRun returns the shared quick run of the named experiment.
func quickRun[T Result](t *testing.T, name string) T {
	t.Helper()
	res, err := quickRuns[name]()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res.(T)
}

// TestPaperGoldens byte-compares every experiment's quick-fidelity
// Format output, at 1 and at 4 workers, with testdata/quick/<name>.golden.
// The runs are seeded and the sweeps' results order-independent, so a
// byte difference is a moved paper number. Regenerate with
// UPDATE_GOLDEN=1 go test -run TestPaperGoldens ./internal/experiments
// after an intentional move; the full-fidelity goldens in testdata/full
// are checked by CI's paper-golden job (see EXPERIMENTS.md).
func TestPaperGoldens(t *testing.T) {
	for _, e := range All {
		t.Run(e.Name, func(t *testing.T) {
			path := filepath.Join("testdata", "quick", e.Name+".golden")
			for _, workers := range []int{1, 4} {
				res, err := quickRuns[e.Name]()
				if workers != 1 {
					res, err = e.Run(t.Context(), Options{Quick: true, Workers: workers})
				}
				if err != nil {
					t.Fatalf("%d workers: %v", workers, err)
				}
				var got bytes.Buffer
				res.Format(&got)
				if os.Getenv("UPDATE_GOLDEN") != "" && workers == 1 {
					if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestPaperGoldens)", err)
				}
				if line, g, w, ok := firstDiff(got.String(), string(want)); ok {
					t.Errorf("%d workers: output drifted from %s at line %d:\n got: %q\nwant: %q\nRegenerate with UPDATE_GOLDEN=1 if intentional.",
						workers, path, line, g, w)
				}
			}
		})
	}
}

// TestGoldenFilesMatchTable: each fidelity's golden directory holds one
// file per experiment of the table and nothing else, so a new, renamed
// or deleted experiment cannot slip past the goldens.
func TestGoldenFilesMatchTable(t *testing.T) {
	var want []string
	for _, e := range All {
		want = append(want, e.Name+".golden")
	}
	slices.Sort(want)
	for _, fidelity := range []string{"quick", "full"} {
		entries, err := os.ReadDir(filepath.Join("testdata", fidelity))
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("testdata/%s holds %v, want %v", fidelity, got, want)
		}
	}
}

// firstDiff returns the first line (1-based) where got and want differ,
// with both lines, and false when they are equal.
func firstDiff(got, want string) (int, string, string, bool) {
	if got == want {
		return 0, "", "", false
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range max(len(g), len(w)) {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl || i >= len(g) || i >= len(w) {
			return i + 1, gl, wl, true
		}
	}
	return 0, "", "", false
}
