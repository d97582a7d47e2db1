package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	spef "repro"
	"repro/internal/serve"
)

// zooFixture is the committed Topology-Zoo GraphML sample, the same
// file the topoio round-trip tests pin.
const zooFixture = "zoo:file=../topoio/testdata/testnet.graphml"

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	s := serve.New(serve.Options{Log: t.Logf})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return ts
}

// doJSON posts (or gets, with a nil body) and decodes the response,
// returning the HTTP status.
func doJSON(t *testing.T, method, url string, body, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatalf("encoding %s %s body: %v", method, url, err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatalf("building %s %s: %v", method, url, err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s %s response: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func loadTopology(t *testing.T, base string, req serve.LoadRequest) serve.MetricsResponse {
	t.Helper()
	var resp serve.MetricsResponse
	if code := doJSON(t, "POST", base+"/v1/topologies", req, &resp); code != http.StatusOK {
		t.Fatalf("loading %+v: status %d", req, code)
	}
	return resp
}

// sameMetrics demands bit-identity: the daemon's read-out IS a batch
// evaluation of the same state, not an approximation of one.
func sameMetrics(t *testing.T, what string, got serve.Metrics, wantMLU, wantUtility, wantFortz float64) {
	t.Helper()
	if float64(got.MLU) != wantMLU || float64(got.Utility) != wantUtility || float64(got.Fortz) != wantFortz {
		t.Fatalf("%s: metrics diverge from batch:\n got: mlu=%v utility=%v fortz=%v\nwant: mlu=%v utility=%v fortz=%v",
			what, float64(got.MLU), float64(got.Utility), float64(got.Fortz), wantMLU, wantUtility, wantFortz)
	}
}

func TestServeLifecycle(t *testing.T) {
	ts := newTestServer(t)

	var h serve.Healthz
	if code := doJSON(t, "GET", ts.URL+"/healthz", nil, &h); code != http.StatusOK || !h.OK || h.Topologies != 0 {
		t.Fatalf("fresh healthz: code=%d %+v", code, h)
	}

	loaded := loadTopology(t, ts.URL, serve.LoadRequest{Topology: "abilene"})
	if loaded.Name != "Abilene" || loaded.Nodes == 0 || loaded.Links == 0 || loaded.Destinations == 0 {
		t.Fatalf("load response: %+v", loaded)
	}

	// A fresh instance must report exactly what a fresh engine does.
	topo, err := spef.ResolveTopology("abilene")
	if err != nil {
		t.Fatal(err)
	}
	eng, err := spef.NewDeltaEngine(topo.Network, topo.Demands, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := eng.Metrics()
	sameMetrics(t, "fresh load", loaded.Metrics, want.MLU, want.Utility, want.Cost)

	var list map[string][]string
	doJSON(t, "GET", ts.URL+"/v1/topologies", nil, &list)
	if len(list["topologies"]) != 1 || list["topologies"][0] != "Abilene" {
		t.Fatalf("list: %v", list)
	}

	// WhatIf must predict exactly what the committed event then reports,
	// and must not itself change state.
	var whatif struct {
		Metrics serve.Metrics `json:"metrics"`
	}
	ev := serve.Event{Type: "set-weight", Link: 0, Weight: 42}
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/Abilene/whatif", ev, &whatif); code != http.StatusOK {
		t.Fatalf("whatif: status %d", code)
	}
	var mid serve.MetricsResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/Abilene/metrics", nil, &mid)
	sameMetrics(t, "state after whatif", mid.Metrics,
		float64(loaded.Metrics.MLU), float64(loaded.Metrics.Utility), float64(loaded.Metrics.Fortz))

	var events serve.EventsResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/Abilene/events",
		serve.EventsRequest{Events: []serve.Event{ev}}, &events); code != http.StatusOK {
		t.Fatalf("events: status %d", code)
	}
	if events.Applied != 1 {
		t.Fatalf("events applied=%d, want 1", events.Applied)
	}
	sameMetrics(t, "commit vs whatif", events.Metrics,
		float64(whatif.Metrics.MLU), float64(whatif.Metrics.Utility), float64(whatif.Metrics.Fortz))

	var stats serve.Statz
	doJSON(t, "GET", ts.URL+"/statz", nil, &stats)
	st, ok := stats.Topologies["Abilene"]
	if !ok {
		t.Fatalf("statz missing topology: %+v", stats)
	}
	if st.Events["set-weight"].Count != 1 || st.Events["whatif"].Count != 1 {
		t.Fatalf("statz event counts: %+v", st.Events)
	}
	// The what-if re-routes exactly the destinations its event then does,
	// and moves the same distances.
	if r := st.Events["set-weight"].Rerouted; r == 0 || r != st.Events["whatif"].Rerouted {
		t.Fatalf("statz re-routed destinations: %+v", st.Events)
	}
	if m := st.Events["set-weight"].Moved; m == 0 || m != st.Events["whatif"].Moved {
		t.Fatalf("statz moved distances: %+v", st.Events)
	}
	if st.FootprintBytes <= 0 {
		t.Fatalf("statz footprint: %d", st.FootprintBytes)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/v1/topologies/Abilene", nil, nil); code != http.StatusOK {
		t.Fatalf("unload: status %d", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/v1/topologies/Abilene/metrics", nil, nil); code != http.StatusNotFound {
		t.Fatalf("metrics after unload: status %d, want 404", code)
	}
}

func TestServeBadRequests(t *testing.T) {
	ts := newTestServer(t)
	loadTopology(t, ts.URL, serve.LoadRequest{Name: "a", Topology: "abilene"})

	cases := []struct {
		name   string
		method string
		path   string
		body   any
		want   int
	}{
		{"unknown topology spec", "POST", "/v1/topologies", serve.LoadRequest{Topology: "abilenne"}, http.StatusBadRequest},
		{"missing topology spec", "POST", "/v1/topologies", serve.LoadRequest{}, http.StatusBadRequest},
		{"duplicate name", "POST", "/v1/topologies", serve.LoadRequest{Name: "a", Topology: "abilene"}, http.StatusBadRequest},
		{"unknown weights", "POST", "/v1/topologies", serve.LoadRequest{Topology: "fig1", Weights: "nope"}, http.StatusBadRequest},
		{"odd fat-tree", "POST", "/v1/topologies", serve.LoadRequest{Topology: "fattree:k=3"}, http.StatusBadRequest},
		{"negative node count", "POST", "/v1/topologies", serve.LoadRequest{Topology: "rand:n=-3"}, http.StatusBadRequest},
		{"negative uniform demand", "POST", "/v1/topologies", serve.LoadRequest{Topology: "abilene", Demands: "uniform:v=-1"}, http.StatusBadRequest},
		{"NaN gravity sigma", "POST", "/v1/topologies", serve.LoadRequest{Topology: "abilene", Demands: "gravity:sigma=NaN"}, http.StatusBadRequest},
		{"GraphML read as SNDlib", "POST", "/v1/topologies", serve.LoadRequest{Topology: "sndlib:file=../topoio/testdata/testnet.graphml"}, http.StatusBadRequest},
		{"unknown json field", "POST", "/v1/topologies", map[string]string{"topolgy": "abilene"}, http.StatusBadRequest},
		{"events on missing topology", "POST", "/v1/topologies/nope/events",
			serve.EventsRequest{Events: []serve.Event{{Type: "set-weight", Link: 0, Weight: 1}}}, http.StatusNotFound},
		{"empty event batch", "POST", "/v1/topologies/a/events", serve.EventsRequest{}, http.StatusBadRequest},
		{"unknown event type", "POST", "/v1/topologies/a/events",
			serve.EventsRequest{Events: []serve.Event{{Type: "explode"}}}, http.StatusBadRequest},
		{"out-of-range link", "POST", "/v1/topologies/a/events",
			serve.EventsRequest{Events: []serve.Event{{Type: "set-weight", Link: 10_000, Weight: 1}}}, http.StatusBadRequest},
		{"whatif unknown type", "POST", "/v1/topologies/a/whatif", serve.Event{Type: "explode"}, http.StatusBadRequest},
		{"replay non-sequence spec", "POST", "/v1/topologies/a/replay", serve.ReplayRequest{Sequence: "gravity"}, http.StatusBadRequest},
		{"replay unknown spec", "POST", "/v1/topologies/a/replay", serve.ReplayRequest{Sequence: "nope"}, http.StatusBadRequest},
		{"unload missing", "DELETE", "/v1/topologies/nope", nil, http.StatusNotFound},
	}
	for _, tc := range cases {
		if code := doJSON(t, tc.method, ts.URL+tc.path, tc.body, nil); code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, code, tc.want)
		}
	}

	// A rejected event mid-batch keeps the committed prefix and reports
	// how far it got.
	var resp serve.EventsResponse
	code := doJSON(t, "POST", ts.URL+"/v1/topologies/a/events", serve.EventsRequest{Events: []serve.Event{
		{Type: "set-weight", Link: 0, Weight: 7},
		{Type: "set-weight", Link: -1, Weight: 7},
	}}, &resp)
	if code != http.StatusBadRequest || resp.Applied != 1 || resp.Error == "" {
		t.Fatalf("partial batch: code=%d applied=%d error=%q", code, resp.Applied, resp.Error)
	}

	// A failure that strands a demand is the client's error too: the
	// batch keeps its committed prefix (links 0 and 1 down), and neither
	// the rejected link-down nor the same what-if changes the state.
	loadTopology(t, ts.URL, serve.LoadRequest{Name: "b", Topology: "abilene"})
	resp = serve.EventsResponse{}
	code = doJSON(t, "POST", ts.URL+"/v1/topologies/b/events", serve.EventsRequest{Events: []serve.Event{
		{Type: "link-down", Link: 0}, {Type: "link-down", Link: 1}, {Type: "link-down", Link: 2},
	}}, &resp)
	if code != http.StatusBadRequest || resp.Applied != 2 || resp.Error == "" {
		t.Fatalf("stranding batch: code=%d applied=%d error=%q", code, resp.Applied, resp.Error)
	}
	var before, after serve.MetricsResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/b/metrics", nil, &before)
	if before.Metrics != resp.Metrics || fmt.Sprint(before.Down) != "[0 1]" {
		t.Fatalf("after stranding batch: metrics %+v down %v, batch reported %+v", before.Metrics, before.Down, resp.Metrics)
	}
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/b/whatif", serve.Event{Type: "link-down", Link: 2}, nil); code != http.StatusBadRequest {
		t.Fatalf("stranding whatif: status %d, want %d", code, http.StatusBadRequest)
	}
	doJSON(t, "GET", ts.URL+"/v1/topologies/b/metrics", nil, &after)
	if after.Metrics != before.Metrics || fmt.Sprint(after.Down) != fmt.Sprint(before.Down) {
		t.Fatalf("stranding whatif changed the state: %+v, was %+v", after, before)
	}
}

// TestServeReplayMatchesBatch is the end-to-end check the control
// plane exists for: a daemon driven over HTTP through a diurnal demand
// sequence plus a failure/restoration pair must land on exactly the
// metrics the batch scenario runner reports for the corresponding grid
// cells. Same inputs, streamed vs batch, bit-identical outputs.
func TestServeReplayMatchesBatch(t *testing.T) {
	const sequence = "gravity-diurnal:steps=6,seed=3"

	// Batch side: the zoo fixture expanded over the same temporal
	// sequence with single-link failures, under the invcap router the
	// daemon defaults to.
	topo, err := spef.ResolveTopology(zooFixture)
	if err != nil {
		t.Fatal(err)
	}
	steps, isSeq, err := spef.ResolveDemandSequence(sequence, topo.Network)
	if err != nil || !isSeq {
		t.Fatalf("ResolveDemandSequence: isSeq=%v err=%v", isSeq, err)
	}
	topo.Steps = steps
	topo.Demands = nil
	grid := spef.Grid{
		Topologies: []spef.Topology{topo},
		Routers:    []spef.Router{spef.OSPF(nil)},
		Failures:   "single",
	}
	cells, err := grid.Scenarios()
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := spef.MetricsByName("mlu", "utility", "fortz")
	if err != nil {
		t.Fatal(err)
	}
	type key struct{ step, failed string }
	batch := map[key]spef.ScenarioResult{}
	for r := range spef.StreamScenarios(context.Background(), cells, spef.RunOptions{Metrics: metrics}) {
		if r.Err != nil {
			t.Fatalf("batch cell %s: %v", r.Scenario, r.Err)
		}
		batch[key{r.Step, r.FailedLink}] = r
	}
	if len(batch) != len(cells) {
		t.Fatalf("batch produced %d results for %d cells", len(batch), len(cells))
	}

	// Serve side: load the same fixture, replay the same sequence.
	ts := newTestServer(t)
	loadTopology(t, ts.URL, serve.LoadRequest{Name: "zoo", Topology: zooFixture})

	var replay serve.ReplayResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/zoo/replay",
		serve.ReplayRequest{Sequence: sequence}, &replay); code != http.StatusOK {
		t.Fatalf("replay: status %d", code)
	}
	if len(replay.Steps) != len(steps) {
		t.Fatalf("replay returned %d steps, want %d", len(replay.Steps), len(steps))
	}
	for i, st := range replay.Steps {
		want, ok := batch[key{steps[i].Label, ""}]
		if !ok {
			t.Fatalf("no batch cell for step %q", steps[i].Label)
		}
		if st.Label != steps[i].Label {
			t.Fatalf("step %d label %q, want %q", i, st.Label, steps[i].Label)
		}
		sameMetrics(t, fmt.Sprintf("replay step %q", st.Label), st.Metrics,
			want.MLU(), want.Utility(), mustMetric(t, want, "fortz"))
		if st.LatencyNs < 0 {
			t.Fatalf("step %q negative latency", st.Label)
		}
	}

	// Failure: drop one duplex pair the batch grid also evaluated (both
	// directions — a batch fail=X variant removes the pair). The daemon,
	// now sitting at the final step's demands, must report that step's
	// fail=X cell.
	last := steps[len(steps)-1].Label
	pair, label := routablePair(t, topo.Network, func(l string) bool {
		_, ok := batch[key{last, l}]
		return ok
	})
	var down serve.EventsResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/zoo/events", serve.EventsRequest{Events: []serve.Event{
		{Type: "link-down", Link: pair[0]},
		{Type: "link-down", Link: pair[1]},
	}}, &down); code != http.StatusOK || down.Applied != 2 {
		t.Fatalf("link-down pair: code=%d applied=%d error=%q", code, down.Applied, down.Error)
	}
	want := batch[key{last, label}]
	sameMetrics(t, fmt.Sprintf("failed pair %s at step %s", label, last), down.Metrics,
		want.MLU(), want.Utility(), mustMetric(t, want, "fortz"))

	// Restoration returns to the intact final-step cell.
	var up serve.EventsResponse
	if code := doJSON(t, "POST", ts.URL+"/v1/topologies/zoo/events", serve.EventsRequest{Events: []serve.Event{
		{Type: "link-up", Link: pair[0]},
		{Type: "link-up", Link: pair[1]},
	}}, &up); code != http.StatusOK || up.Applied != 2 {
		t.Fatalf("link-up pair: code=%d applied=%d error=%q", code, up.Applied, up.Error)
	}
	intact := batch[key{last, ""}]
	sameMetrics(t, fmt.Sprintf("restored at step %s", last), up.Metrics,
		intact.MLU(), intact.Utility(), mustMetric(t, intact, "fortz"))

	// The daemon recorded latency for everything it did.
	var stats serve.Statz
	doJSON(t, "GET", ts.URL+"/statz", nil, &stats)
	st := stats.Topologies["zoo"]
	if st.Events["step-demands"].Count != uint64(len(steps)) {
		t.Fatalf("statz step-demands count %d, want %d", st.Events["step-demands"].Count, len(steps))
	}
	if st.Events["link-down"].Count != 2 || st.Events["link-up"].Count != 2 {
		t.Fatalf("statz flap counts: %+v", st.Events)
	}
}

// routablePair finds a duplex pair whose batch failure variant exists
// (i.e. the failure leaves every demand routable), returning the pair
// and its batch FailedLink label.
func routablePair(t *testing.T, n *spef.Network, inBatch func(label string) bool) ([2]int, string) {
	t.Helper()
	for _, pair := range n.DuplexPairs() {
		from, to, _ := n.Link(pair[0])
		label := fmt.Sprintf("%s-%s", nodeLabel(n, from), nodeLabel(n, to))
		if inBatch(label) {
			return pair, label
		}
	}
	t.Fatal("no routable duplex pair found in batch results")
	return [2]int{}, ""
}

func nodeLabel(n *spef.Network, node int) string {
	if s := n.NodeName(node); s != "" {
		return s
	}
	return fmt.Sprintf("n%d", node)
}

func mustMetric(t *testing.T, r spef.ScenarioResult, name string) float64 {
	t.Helper()
	v, ok := r.Metric(name)
	if !ok {
		t.Fatalf("cell %s missing metric %q", r.Scenario, name)
	}
	return v
}

// TestServeFloatJSONRoundTrip pins the wire encoding of non-finite
// metrics: a saturated link's -Inf utility must survive JSON instead
// of failing to encode.
func TestServeFloatJSONRoundTrip(t *testing.T) {
	in := serve.Metrics{Fortz: 1.25, MLU: serve.Float(math.Inf(1)), Utility: serve.Float(math.Inf(-1))}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out serve.Metrics
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out.Fortz != in.Fortz || !math.IsInf(float64(out.MLU), 1) || !math.IsInf(float64(out.Utility), -1) {
		t.Fatalf("round trip: %s -> %+v", b, out)
	}
}

// TestServeGracefulShutdown drives the real listener path: the daemon
// binds a random port, answers, and a context cancellation shuts it
// down cleanly.
func TestServeGracefulShutdown(t *testing.T) {
	s := serve.New(serve.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- s.ListenAndServe(ctx, "127.0.0.1:0", ready) }()
	addr := <-ready
	base := "http://" + addr.String()

	loadTopology(t, base, serve.LoadRequest{Topology: "fig1"})
	var h serve.Healthz
	if code := doJSON(t, "GET", base+"/healthz", nil, &h); code != http.StatusOK || h.Topologies != 1 {
		t.Fatalf("healthz over listener: code=%d %+v", code, h)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down")
	}
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still answering after shutdown")
	}
}

// postRaw posts body verbatim and returns the status and the error
// message of an errorBody reply ("" for any other reply).
func postRaw(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	return resp.StatusCode, e.Error
}

// listTopologies returns the names of the loaded topologies.
func listTopologies(t *testing.T, base string) []string {
	t.Helper()
	var list struct {
		Topologies []string `json:"topologies"`
	}
	if code := doJSON(t, "GET", base+"/v1/topologies", nil, &list); code != http.StatusOK {
		t.Fatalf("listing topologies: status %d", code)
	}
	return list.Topologies
}

// TestServeRefusesTrailingData: a body is one JSON value followed by
// nothing but white space. Anything else after the value is a 400 that
// loads nothing; trailing white space still loads.
func TestServeRefusesTrailingData(t *testing.T) {
	ts := newTestServer(t)
	for _, body := range []string{
		`{"topology":"abilene"} this is not json`,
		`{"topology":"abilene"}{"topology":"fig1"}`,
		`{"topology":"abilene"}}`,
		`{"topology":"abilene"} 0`,
	} {
		if code, msg := postRaw(t, ts.URL+"/v1/topologies", body); code != http.StatusBadRequest || msg == "" {
			t.Errorf("body %q: status %d, error %q; want 400 with an error", body, code, msg)
		}
	}
	if names := listTopologies(t, ts.URL); len(names) != 0 {
		t.Fatalf("refused bodies loaded %v", names)
	}
	if code, msg := postRaw(t, ts.URL+"/v1/topologies", "{\"topology\":\"abilene\"}\n\t \r\n"); code != http.StatusOK {
		t.Fatalf("trailing white space: status %d, error %q; want 200", code, msg)
	}
	if names := listTopologies(t, ts.URL); len(names) != 1 {
		t.Fatalf("loaded %v, want one topology", names)
	}
}

// TestServeRefusesOversizedBody: every body is bounded at MaxBodyBytes.
// One byte over is a 413 in the errorBody shape, whether the excess is
// inside the JSON value or after it, and changes nothing; a body of
// exactly MaxBodyBytes is served.
func TestServeRefusesOversizedBody(t *testing.T) {
	ts := newTestServer(t)
	padded := func(value string, size int) string { return value + strings.Repeat(" ", size-len(value)) }

	load := `{"name":"a","topology":"abilene"}`
	if code, msg := postRaw(t, ts.URL+"/v1/topologies", padded(load, serve.MaxBodyBytes+1)); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Fatalf("oversized white space: status %d, error %q; want 413 with an error", code, msg)
	}
	if names := listTopologies(t, ts.URL); len(names) != 0 {
		t.Fatalf("oversized body loaded %v", names)
	}
	if code, msg := postRaw(t, ts.URL+"/v1/topologies", padded(load, serve.MaxBodyBytes)); code != http.StatusOK {
		t.Fatalf("body at the bound: status %d, error %q; want 200", code, msg)
	}

	var before serve.MetricsResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/a/metrics", nil, &before)
	event := `{"type":"set-weight","link":0,"weight":7},`
	batch := `{"events":[` + strings.Repeat(event, serve.MaxBodyBytes/len(event)) + `{"type":"set-weight","link":0,"weight":7}]}`
	if code, msg := postRaw(t, ts.URL+"/v1/topologies/a/events", batch); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Fatalf("oversized event batch: status %d, error %q; want 413 with an error", code, msg)
	}
	var after serve.MetricsResponse
	doJSON(t, "GET", ts.URL+"/v1/topologies/a/metrics", nil, &after)
	if after.Metrics != before.Metrics {
		t.Fatalf("oversized batch changed the state: %+v, was %+v", after.Metrics, before.Metrics)
	}
	if code, msg := postRaw(t, ts.URL+"/v1/topologies/a/events", `{"events":[`+event[:len(event)-1]+`]}`); code != http.StatusOK {
		t.Fatalf("small event batch: status %d, error %q; want 200", code, msg)
	}
}

// TestServeReadHeaderTimeout: the server Serve builds drops a
// connection whose request headers never end, and keeps answering
// complete requests.
func TestServeReadHeaderTimeout(t *testing.T) {
	old := serve.SetReadHeaderTimeout(200 * time.Millisecond)
	s := serve.New(serve.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() { errc <- s.Serve(ctx, ln) }()
	defer func() {
		cancel()
		if err := <-errc; err != nil {
			t.Errorf("shutdown: %v", err)
		}
		serve.SetReadHeaderTimeout(old)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprint(conn, "GET /healthz HTTP/1.1\r\nHost: test\r\n"); err != nil {
		t.Fatal(err)
	}
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(make([]byte, 64))
	var ne net.Error
	switch {
	case err == nil:
		t.Fatalf("server answered %d bytes to headers that never ended", n)
	case errors.As(err, &ne) && ne.Timeout():
		t.Fatal("server kept a connection with unfinished headers open for 5 s")
	}

	var h serve.Healthz
	if code := doJSON(t, "GET", "http://"+ln.Addr().String()+"/healthz", nil, &h); code != http.StatusOK || !h.OK {
		t.Fatalf("healthz after the dropped connection: code=%d %+v", code, h)
	}
}
