package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// expectedJSON holds the exact outputs of seed-1 operations: MLU and
// utility bit patterns (as shortest round-trip decimal strings) and
// digests of weights and of merged sweep output, keyed
// "<workload>/<size>/<operation>".
//
//go:embed testdata/expected_seed1.json
var expectedJSON []byte

type expected map[string][]string

func parseExpected(b []byte) (expected, error) {
	var e expected
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("testdata/expected_seed1.json: %w", err)
	}
	return e, nil
}

// size names the input size a run used.
func (c config) size() string {
	if c.quick {
		return "quick"
	}
	return "full"
}

// check fails every recorded operation whose outputs differ from the
// committed seed-1 values. Operations the file does not list (a run
// that got further than the one that wrote it) go unchecked.
func (e expected) check(r *run, workload string) {
	prefix := workload + "/" + r.size() + "/"
	for _, key := range slices.Sorted(maps.Keys(r.outputs)) {
		want, ok := e[prefix+key]
		if ok && !slices.Equal(want, r.outputs[key]) {
			r.fail("seed-1 output %s%s = %v, want %v", prefix, key, r.outputs[key], want)
		}
	}
}

// recordExpected replaces the workload's entries at the run's size in
// the expected-outputs file in the source tree with the run's outputs.
func recordExpected(r *run, workload string) error {
	_, src, _, ok := runtime.Caller(0)
	if !ok {
		return fmt.Errorf("cannot locate the benchmark sources")
	}
	path := filepath.Join(filepath.Dir(src), "testdata", "expected_seed1.json")
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	e, err := parseExpected(b)
	if err != nil {
		return err
	}
	prefix := workload + "/" + r.size() + "/"
	for k := range e {
		if strings.HasPrefix(k, prefix) {
			delete(e, k)
		}
	}
	for k, v := range r.outputs {
		e[prefix+k] = v
	}
	if b, err = json.MarshalIndent(e, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
