package spef

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the ingest golden files")

// goldenCanonical renders an imported topology in the repository's
// canonical text format — the representation the golden files pin.
func goldenCanonical(t *testing.T, imp *ImportedNetwork) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteNetworkAndDemands(&buf, imp.Network, imp.Demands); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImportGolden pins the canonical form of every committed fixture:
// any parser or capacity-inference change that alters an imported
// topology shows up as a golden diff. Regenerate with `go test -run
// TestImportGolden -update .`.
func TestImportGolden(t *testing.T) {
	cases := []struct {
		fixture, golden string
	}{
		{"internal/topoio/testdata/testnet.graphml", "internal/topoio/testdata/testnet.graphml.golden"},
		{"internal/topoio/testdata/testnet.txt", "internal/topoio/testdata/testnet.txt.golden"},
	}
	for _, c := range cases {
		t.Run(c.fixture, func(t *testing.T) {
			imp, err := LoadTopologyFile(c.fixture, ImportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			got := goldenCanonical(t, imp)
			if *updateGolden {
				if err := os.WriteFile(c.golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(c.golden)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("canonical form drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", c.golden, got, want)
			}
		})
	}
}

// TestImportRoundTrip is the round-trip property: an imported network
// written to the text format and re-read has an identical canonical
// form — names, link order, capacities, demands all survive.
func TestImportRoundTrip(t *testing.T) {
	for _, fixture := range []string{
		"internal/topoio/testdata/testnet.graphml",
		"internal/topoio/testdata/testnet.txt",
	} {
		t.Run(fixture, func(t *testing.T) {
			imp, err := LoadTopologyFile(fixture, ImportOptions{})
			if err != nil {
				t.Fatal(err)
			}
			first := goldenCanonical(t, imp)
			n2, d2, err := ParseNetworkAndDemands(bytes.NewReader(first))
			if err != nil {
				t.Fatalf("re-reading canonical form: %v", err)
			}
			var second bytes.Buffer
			if d2 != nil && d2.Total() == 0 {
				d2 = nil // Write omits absent demands; Parse returns an empty set
			}
			if err := WriteNetworkAndDemands(&second, n2, d2); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second.Bytes()) {
				t.Errorf("round-trip changed the canonical form:\n--- first ---\n%s\n--- second ---\n%s", first, second.Bytes())
			}
		})
	}
}

func TestResolveTopologyImportSpecs(t *testing.T) {
	topo, err := ResolveTopology("zoo:file=internal/topoio/testdata/testnet.graphml")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "TestNet" {
		t.Errorf("zoo topology name = %q, want TestNet (the file's Network attribute)", topo.Name)
	}
	if topo.Demands == nil {
		t.Error("zoo topology missing canonical demands")
	}
	if topo.Network.NumNodes() != 5 || topo.Network.NumLinks() != 12 {
		t.Errorf("zoo topology = %d nodes / %d links, want 5/12", topo.Network.NumNodes(), topo.Network.NumLinks())
	}

	topo, err = ResolveTopology("sndlib:file=internal/topoio/testdata/testnet.txt")
	if err != nil {
		t.Fatal(err)
	}
	if topo.Name != "testnet-snd" {
		t.Errorf("sndlib topology name = %q, want testnet-snd", topo.Name)
	}
	if topo.Demands == nil || topo.Demands.Total() != 12+7.5+3.25+5 {
		t.Errorf("sndlib topology demands = %v, want the file's DEMANDS total", topo.Demands)
	}

	if _, err := ResolveTopology("zoo:file=no/such/file.graphml"); err == nil {
		t.Error("missing file resolved without error")
	}
	if _, err := ResolveTopology("zoo:"); err == nil {
		t.Error("zoo spec without file= resolved without error")
	}
}

// TestLibraryOptionsRejectBadValues: option values the registry's spec
// parser rejects are bad input through the library API too. A
// non-finite robust FailurePenalty made every robust score NaN or +Inf,
// so the search accepted no move and returned the InvCap weights; an
// infinite CapacityUnit imported every link at capacity 1, and a NaN or
// negative one, or a negative DefaultCapacity, silently fell back to
// the default.
func TestLibraryOptionsRejectBadValues(t *testing.T) {
	n := Abilene()
	d, err := ResolveDemands("gravity", n)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = d.ScaledToLoad(n, 0.2); err != nil {
		t.Fatal(err)
	}
	robust := func(rho float64) func() error {
		return func() error {
			r := OSPFLocalSearch(LocalSearchOptions{Robust: true, MaxEvals: 50, FailurePenalty: rho})
			_, err := r.Routes(context.Background(), n, d)
			return err
		}
	}
	read := func(path string, opts ImportOptions, parse func(io.Reader, ImportOptions) (*ImportedNetwork, error)) func() error {
		return func() error {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			_, err = parse(f, opts)
			return err
		}
	}
	load := func(path string, opts ImportOptions) func() error {
		return func() error { _, err := LoadTopologyFile(path, opts); return err }
	}
	const zoo, snd = "internal/topoio/testdata/testnet.graphml", "internal/topoio/testdata/testnet.txt"
	for _, tc := range []struct {
		name string
		call func() error
	}{
		{"robust FailurePenalty NaN", robust(math.NaN())},
		{"robust FailurePenalty +Inf", robust(math.Inf(1))},
		{"zoo CapacityUnit +Inf", read(zoo, ImportOptions{CapacityUnit: math.Inf(1)}, ReadTopologyZoo)},
		{"zoo CapacityUnit NaN", read(zoo, ImportOptions{CapacityUnit: math.NaN()}, ReadTopologyZoo)},
		{"zoo CapacityUnit -5", read(zoo, ImportOptions{CapacityUnit: -5}, ReadTopologyZoo)},
		{"zoo DefaultCapacity -1", read(zoo, ImportOptions{DefaultCapacity: -1}, ReadTopologyZoo)},
		{"zoo DefaultCapacity +Inf", read(zoo, ImportOptions{DefaultCapacity: math.Inf(1)}, ReadTopologyZoo)},
		{"sndlib DefaultCapacity NaN", read(snd, ImportOptions{DefaultCapacity: math.NaN()}, ReadSNDlib)},
		{"sndlib DefaultCapacity -1", read(snd, ImportOptions{DefaultCapacity: -1}, ReadSNDlib)},
		{"sndlib CapacityUnit -Inf", read(snd, ImportOptions{CapacityUnit: math.Inf(-1)}, ReadSNDlib)},
		{"load zoo CapacityUnit -5", load(zoo, ImportOptions{CapacityUnit: -5})},
		{"load sndlib DefaultCapacity NaN", load(snd, ImportOptions{DefaultCapacity: math.NaN()})},
	} {
		if err := tc.call(); !errors.Is(err, ErrBadInput) {
			t.Errorf("%s: err = %v, want ErrBadInput", tc.name, err)
		}
	}
}

func TestResolveTopologyGeneratorSpecs(t *testing.T) {
	cases := []struct {
		spec         string
		nodes, links int // links 0 = just check connectivity invariants
	}{
		{"waxman:n=20,alpha=0.5,beta=0.3,seed=7", 20, 0},
		{"ba:n=20,m=2,seed=3", 20, 0},
		{"fattree:k=4", 4 + 16, 2 * (16 + 16)},
		{"grid:rows=3,cols=4", 12, 2 * (3*3 + 2*4)},
		{"grid:rows=3,cols=4,wrap=1", 12, 2 * (3*4 + 4*3)},
	}
	for _, c := range cases {
		topo, err := ResolveTopology(c.spec)
		if err != nil {
			t.Errorf("%s: %v", c.spec, err)
			continue
		}
		if topo.Network.NumNodes() != c.nodes {
			t.Errorf("%s: %d nodes, want %d", c.spec, topo.Network.NumNodes(), c.nodes)
		}
		if c.links > 0 && topo.Network.NumLinks() != c.links {
			t.Errorf("%s: %d links, want %d", c.spec, topo.Network.NumLinks(), c.links)
		}
		if topo.Demands == nil {
			t.Errorf("%s: missing canonical demands", c.spec)
		}
		// Determinism: resolving the same spec twice gives identical
		// canonical forms.
		again, err := ResolveTopology(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		var a, b bytes.Buffer
		if err := WriteNetworkAndDemands(&a, topo.Network, nil); err != nil {
			t.Fatal(err)
		}
		if err := WriteNetworkAndDemands(&b, again.Network, nil); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: non-deterministic generation", c.spec)
		}
	}
}

func TestResolveErrorsNameUnknownSpecs(t *testing.T) {
	_, err := ResolveTopology("abileen")
	if err == nil {
		t.Fatal("typo resolved without error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `"abileen"`) {
		t.Errorf("error does not name the unknown spec: %v", msg)
	}
	if !strings.Contains(msg, "abilene") {
		t.Errorf("error does not list/suggest the known specs: %v", msg)
	}
	if !strings.Contains(msg, "did you mean") {
		t.Errorf("error has no suggestion for a near-miss: %v", msg)
	}

	n, _ := RandomNetwork(1, 8, 20)
	_, err = ResolveDemands("gravty", n)
	if err == nil {
		t.Fatal("typo resolved without error")
	}
	if !strings.Contains(err.Error(), "gravity") || !strings.Contains(err.Error(), `"gravty"`) {
		t.Errorf("demand error does not name the typo and suggest gravity: %v", err)
	}

	// A sequence spec passed where a single matrix is expected points at
	// the sequence API instead of claiming the name is unknown.
	_, err = ResolveDemands("gravity-diurnal", n)
	if err == nil || !strings.Contains(err.Error(), "sequence") {
		t.Errorf("sequence spec error = %v, want a pointer to demand sequences", err)
	}

	_, err = ResolveRouter("speff", 0)
	if err == nil || !strings.Contains(err.Error(), "spef") || !strings.Contains(err.Error(), `"speff"`) {
		t.Errorf("router error does not name the typo and known routers: %v", err)
	}
}

func TestResolveDemandSequence(t *testing.T) {
	n, err := RandomNetwork(1, 10, 26)
	if err != nil {
		t.Fatal(err)
	}
	steps, ok, err := ResolveDemandSequence("gravity-diurnal:steps=6,peak=1,trough=0.25,seed=2", n)
	if err != nil || !ok {
		t.Fatalf("ResolveDemandSequence: ok=%v err=%v", ok, err)
	}
	if len(steps) != 6 {
		t.Fatalf("%d steps, want 6", len(steps))
	}
	// The diurnal profile troughs at step 0 and peaks at the middle.
	t0, t3 := steps[0].Demands.Total(), steps[3].Demands.Total()
	if !(t3 > t0) {
		t.Errorf("peak step total %v not above trough %v", t3, t0)
	}
	if ratio := t0 / t3; ratio < 0.2 || ratio > 0.3 {
		t.Errorf("trough/peak ratio = %v, want 0.25", ratio)
	}
	if steps[0].Label != "t00" || steps[5].Label != "t05" {
		t.Errorf("labels = %q..%q, want t00..t05", steps[0].Label, steps[5].Label)
	}

	// Hotspots boost the burst window above the plain cycle.
	burst, ok, err := ResolveDemandSequence("gravity-diurnal:steps=6,peak=1,trough=0.25,seed=2,hotspots=3,boost=5", n)
	if err != nil || !ok {
		t.Fatalf("hotspot sequence: ok=%v err=%v", ok, err)
	}
	if !(burst[2].Demands.Total() > steps[2].Demands.Total()) {
		t.Error("burst window step total not boosted")
	}
	if burst[0].Demands.Total() != steps[0].Demands.Total() {
		t.Error("steps outside the burst window were modified")
	}

	// Ordinary single-matrix specs are not sequences.
	if _, ok, err := ResolveDemandSequence("gravity", n); ok || err != nil {
		t.Errorf("gravity: ok=%v err=%v, want a fall-through", ok, err)
	}
	// Unknown parameters still fail loudly.
	if _, _, err := ResolveDemandSequence("ft-diurnal:bogus=1", n); err == nil {
		t.Error("unknown parameter resolved without error")
	}
}

// TestSuiteOverZooFixtureEndToEnd is the acceptance run: a suite over
// the committed Topology Zoo fixture with a gravity-diurnal sequence,
// single-link failures on, all four routers, streamed to JSONL.
func TestSuiteOverZooFixtureEndToEnd(t *testing.T) {
	suite := &Suite{
		Name:          "zoo-e2e",
		Topologies:    []string{"zoo:file=internal/topoio/testdata/testnet.graphml"},
		Demands:       "gravity-diurnal:steps=3,peak=1,trough=0.5,seed=1",
		Loads:         []float64{0.05},
		Routers:       []string{"spef", "invcap", "peft", "optimal"},
		Metrics:       []string{"mlu", "utility"},
		Failures:      "single",
		MaxIterations: 40,
		ReuseWeights:  true,
	}
	seq, err := suite.Stream(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	routers := map[string]bool{}
	steps := map[string]bool{}
	failures := map[string]bool{}
	count := 0
	for r := range seq {
		if r.Err != nil {
			t.Errorf("cell %s failed: %v", r.Scenario, r.Err)
		}
		if err := sink.Write(r); err != nil {
			t.Fatal(err)
		}
		routers[r.Router] = true
		steps[r.Step] = true
		failures[r.FailedLink] = true
		count++
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(routers) != 4 {
		t.Errorf("routers seen = %v, want 4 distinct", routers)
	}
	if len(steps) != 3 {
		t.Errorf("steps seen = %v, want t00..t02", steps)
	}
	if len(failures) < 2 {
		t.Errorf("failure variants seen = %v, want intact + failed links", failures)
	}
	// 3 steps x (1 intact + 6 surviving failures at most) x 4 routers.
	if count == 0 || count%12 != 0 {
		t.Errorf("cell count = %d, want a multiple of steps x routers", count)
	}
	// Every JSONL line deserializes and carries the step axis.
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		if _, ok := rec["step"]; !ok {
			t.Errorf("JSONL line missing step field: %s", line)
		}
	}
}
