package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"time"

	spef "repro"
	"repro/internal/serve"
)

// serveSize fixes the serve workload's inputs.
type serveSize struct {
	topology string
	// Quick runs send a fixed request count instead of running until
	// the time budget is spent.
	quickN int
}

func (c config) serveSize() serveSize {
	if c.quick {
		return serveSize{topology: "abilene", quickN: 100}
	}
	return serveSize{topology: "rand:n=100,links=400,seed=1"}
}

// serveWarmup is how many leading requests are sent but not timed.
const serveWarmup = 200

// request kinds of the seeded mix.
const (
	kindSetWeight = iota
	kindSetDemand
	kindLinkFlap
	kindWhatIfWeight
	kindWhatIfLinkDown
)

var kindSpans = [...]string{"delta.set_weight", "delta.set_demand", "delta.link_flap", "delta.whatif_weight", "delta.whatif_link_down"}

// request is one generated control-plane request.
type request struct {
	kind int
	ev   serve.Event
	body []byte
	path string
}

// serveModel is the client's copy of the state the server should hold,
// and the seeded request generator that advances it.
type serveModel struct {
	net    *spef.Network
	base   *spef.Demands // the demands the topology was loaded with
	rng    *rand.Rand
	invcap []float64
	w      []float64 // current weights
	vol    []float64 // current demand volumes, row-major
	pair   [2]int    // the duplex pair link flaps toggle
	flaps  int       // flap events so far
	safe   []int     // links whose what-if failure keeps every demand routable
}

// newServeModel loads the same topology and demands the server loads and
// picks the flap pair and the what-if failure links, all routable.
func newServeModel(topology, demands string, seed int64) (*serveModel, error) {
	t, err := spef.ResolveTopology(topology)
	if err != nil {
		return nil, err
	}
	d, err := spef.ResolveDemands(demands, t.Network)
	if err != nil {
		return nil, err
	}
	n := t.Network
	m := &serveModel{net: n, base: d, rng: rand.New(rand.NewSource(seed)), invcap: spef.InvCapWeights(n)}
	m.w = slices.Clone(m.invcap)
	nn := n.NumNodes()
	m.vol = make([]float64, nn*nn)
	for s := 0; s < nn; s++ {
		for t := 0; t < nn; t++ {
			m.vol[s*nn+t] = d.At(s, t)
		}
	}
	// Every ordered pair carries demand, so "routable" is "strongly
	// connected".
	pairs := n.DuplexPairs()
	found := false
	for _, i := range m.rng.Perm(len(pairs)) {
		if stronglyConnected(n, pairs[i][0], pairs[i][1]) {
			m.pair, found = pairs[i], true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("no duplex pair of %s can fail without stranding demand", topology)
	}
	for e := 0; e < n.NumLinks(); e++ {
		if e != m.pair[0] && e != m.pair[1] && stronglyConnected(n, m.pair[0], m.pair[1], e) {
			m.safe = append(m.safe, e)
		}
	}
	if len(m.safe) == 0 {
		return nil, fmt.Errorf("no link of %s can fail with the flap pair down", topology)
	}
	return m, nil
}

// stronglyConnected reports whether every node still reaches every
// other with the given links removed.
func stronglyConnected(n *spef.Network, removed ...int) bool {
	nn := n.NumNodes()
	out := make([][]int, nn)
	in := make([][]int, nn)
	for id := 0; id < n.NumLinks(); id++ {
		if slices.Contains(removed, id) {
			continue
		}
		from, to, _ := n.Link(id)
		out[from] = append(out[from], to)
		in[to] = append(in[to], from)
	}
	reach := func(adj [][]int) bool {
		seen := make([]bool, nn)
		stack := []int{0}
		seen[0] = true
		count := 1
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, v := range adj[u] {
				if !seen[v] {
					seen[v] = true
					count++
					stack = append(stack, v)
				}
			}
		}
		return count == nn
	}
	return reach(out) && reach(in)
}

// next draws the next request of the mix: 40% set-weight, 15%
// set-demand, 5% link flaps on one duplex pair, 30% what-if set-weight,
// 10% what-if link-down. State changes are applied to the model as the
// request is drawn; requests are sent in the order drawn.
func (m *serveModel) next() request {
	u := m.rng.Float64()
	var rq request
	switch {
	case u < 0.40, u >= 0.60 && u < 0.90:
		link := m.rng.Intn(len(m.w))
		w := m.invcap[link] * (0.5 + m.rng.Float64())
		rq.ev = serve.Event{Type: "set-weight", Link: link, Weight: w}
		if u < 0.40 {
			rq.kind = kindSetWeight
			m.w[link] = w
		} else {
			rq.kind = kindWhatIfWeight
		}
	case u < 0.55:
		nn := m.net.NumNodes()
		s := m.rng.Intn(nn)
		t := (s + 1 + m.rng.Intn(nn-1)) % nn
		v := m.base.At(s, t) * (0.5 + m.rng.Float64())
		rq.kind, rq.ev = kindSetDemand, serve.Event{Type: "set-demand", Src: s, Dst: t, Volume: v}
		m.vol[s*nn+t] = v
	case u < 0.60:
		// down(a), down(b), up(a), up(b), ...
		typ := "link-down"
		if m.flaps%4 >= 2 {
			typ = "link-up"
		}
		rq.kind, rq.ev = kindLinkFlap, serve.Event{Type: typ, Link: m.pair[m.flaps%2]}
		m.flaps++
	default:
		link := m.safe[m.rng.Intn(len(m.safe))]
		rq.kind, rq.ev = kindWhatIfLinkDown, serve.Event{Type: "link-down", Link: link}
	}
	if rq.kind == kindWhatIfWeight || rq.kind == kindWhatIfLinkDown {
		rq.path = "/whatif"
		rq.body, _ = json.Marshal(rq.ev) // plain struct: cannot fail
	} else {
		rq.path = "/events"
		rq.body, _ = json.Marshal(serve.EventsRequest{Events: []serve.Event{rq.ev}})
	}
	return rq
}

// down lists the flap pair's links currently down, increasing.
func (m *serveModel) down() []int {
	var d []int
	switch m.flaps % 4 {
	case 1:
		d = []int{m.pair[0]}
	case 2:
		d = []int{m.pair[0], m.pair[1]}
	case 3:
		d = []int{m.pair[1]}
	}
	slices.Sort(d)
	return d
}

// rebuild evaluates the model's final state anew, on a fresh engine.
func (m *serveModel) rebuild() (spef.DeltaMetrics, error) {
	nn := m.net.NumNodes()
	d := spef.NewDemands(m.net)
	for i, v := range m.vol {
		if v > 0 {
			if err := d.Add(i/nn, i%nn, v); err != nil {
				return spef.DeltaMetrics{}, err
			}
		}
	}
	en, err := spef.NewDeltaEngine(m.net, d, m.w)
	if err != nil {
		return spef.DeltaMetrics{}, err
	}
	for _, l := range m.down() {
		if err := en.LinkDown(l); err != nil {
			return spef.DeltaMetrics{}, err
		}
	}
	return en.Metrics(), nil
}

// server is the in-process daemon on a loopback listener and the one
// connection the client uses.
type server struct {
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
}

func startServer(ctx context.Context, topology, demands string) (*server, serve.MetricsResponse, error) {
	var loaded serve.MetricsResponse
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, loaded, err
	}
	sctx, cancel := context.WithCancel(ctx)
	s := &server{
		base: "http://" + ln.Addr().String() + "/v1/topologies",
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		cancel: cancel,
		done:   make(chan error, 1),
	}
	go func() { s.done <- serve.New(serve.Options{}).Serve(sctx, ln) }()
	body, _ := json.Marshal(serve.LoadRequest{Name: "bench", Topology: topology, Demands: demands})
	if err := s.do(http.MethodPost, s.base, body, &loaded); err != nil {
		s.stop()
		return nil, loaded, fmt.Errorf("loading %s: %w", topology, err)
	}
	return s, loaded, nil
}

// stop shuts the server down and waits for it.
func (s *server) stop() {
	s.cancel()
	<-s.done
	s.client.CloseIdleConnections()
}

// do sends one request and decodes a 200 response into out.
func (s *server) do(method, url string, body []byte, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// send issues one generated request and returns the metrics it reports.
func (s *server) send(rq request) (serve.Metrics, error) {
	if rq.path == "/events" {
		var er serve.EventsResponse
		err := s.do(http.MethodPost, s.base+"/bench/events", rq.body, &er)
		return er.Metrics, err
	}
	var wr map[string]serve.Metrics
	err := s.do(http.MethodPost, s.base+"/bench/whatif", rq.body, &wr)
	return wr["metrics"], err
}

func metricStrings(m serve.Metrics) []string {
	return []string{fbits(float64(m.Fortz)), fbits(float64(m.MLU)), fbits(float64(m.Utility))}
}

func deltaStrings(m spef.DeltaMetrics) []string {
	return []string{fbits(m.Cost), fbits(m.MLU), fbits(m.Utility)}
}

// checkedRequests is how many leading requests' outputs a seed-1 run
// records.
const checkedRequests = 32

// runServe drives an in-process `spef serve` over loopback HTTP with one
// connection in a closed loop, timing each request's round trip. The
// server's final state is checked against a delta engine rebuilt anew.
// Traced, the leading requests are replayed on a spef.DeltaEngine
// directly, each event timed, and every reply compared.
//
// An open loop at a fixed arrival rate would time queueing too, but
// queueing grows with the server's load far faster than linearly, so on
// a host whose speed drifts its latencies spread beyond any bound; the
// closed loop's round trips grow in proportion to the host's speed.
func runServe(ctx context.Context, r *run) error {
	sz := r.serveSize()
	demands := "gravity:seed=" + strconv.FormatInt(inputSeeds(r.seed, 1)[0], 10)
	// The request generator is the benchmark's own; only the server's
	// start and load are set-up.
	model, err := newServeModel(sz.topology, demands, r.seed)
	if err != nil {
		return err
	}
	var srv *server
	var loaded serve.MetricsResponse
	err = r.timeSetup(func() error {
		var err error
		srv, loaded, err = startServer(ctx, sz.topology, demands)
		return err
	}, func() { srv.stop() })
	if err != nil {
		return err
	}
	defer srv.stop()
	r.output("load", metricStrings(loaded.Metrics)...)

	warmup := serveWarmup
	if r.quick {
		warmup = 0
	}
	var sent []request
	var replies []serve.Metrics
	var rtts []time.Duration
	var start time.Time
	for i := 0; ; i++ {
		if i == warmup {
			start = time.Now()
		}
		if r.quick && i == sz.quickN || !r.quick && i > warmup && time.Since(start) >= r.budget {
			break
		}
		rq := model.next()
		t0 := time.Now()
		m, err := srv.send(rq)
		rtts = append(rtts, time.Since(t0))
		r.attempted++
		if err != nil {
			r.fail("request %d: %v", i, err)
		}
		if i < replayedRequests {
			sent, replies = append(sent, rq), append(replies, m)
		}
		if i < checkedRequests {
			r.output("req"+strconv.Itoa(i), metricStrings(m)...)
		}
		if i >= warmup && r.loopCal.due() {
			r.loopCal.sample()
		}
	}
	r.lat = rtts[warmup:]
	r.work, r.workTime = float64(len(r.lat)), time.Since(start)-r.loopCal.spent
	// The slow kinds (link flaps and what-if failures) are 15% of the
	// mix; p90 lies among them all, while p99 moved more from seed to
	// seed (README.md).
	r.tailQ = 0.9

	// The final state must equal a fresh evaluation of the inputs
	// the client sent.
	r.attempted++
	var final serve.MetricsResponse
	if err := srv.do(http.MethodGet, srv.base+"/bench/metrics", nil, &final); err != nil {
		r.fail("final metrics: %v", err)
	} else if want, err := model.rebuild(); err != nil {
		r.fail("rebuilding the final state: %v", err)
	} else if got := metricStrings(final.Metrics); !slices.Equal(got, deltaStrings(want)) || !slices.Equal(final.Down, model.down()) {
		r.fail("final state %v down %v, rebuilt engine %v down %v", got, final.Down, deltaStrings(want), model.down())
	}

	if r.trace {
		return serveTraced(r, model, sent, replies, rtts[:len(sent)])
	}
	return nil
}

// replayedRequests caps how many leading requests a traced run replays
// (twice), so that the traced run takes little longer than an untraced
// one.
const replayedRequests = 2000

// replayer is a delta engine the traced run replays requests on.
type replayer struct {
	en *spef.DeltaEngine
	sc *spef.DeltaScratch
}

func newReplayer(model *serveModel) (replayer, error) {
	en, err := spef.NewDeltaEngine(model.net, model.base, nil)
	if err != nil {
		return replayer{}, err
	}
	return replayer{en: en, sc: en.NewScratch()}, nil
}

// apply makes the engine call a request makes in the server.
func (rp replayer) apply(rq request) (spef.DeltaMetrics, error) {
	var err error
	switch rq.kind {
	case kindWhatIfWeight:
		return rp.en.WhatIfWeight(rp.sc, rq.ev.Link, rq.ev.Weight)
	case kindWhatIfLinkDown:
		return rp.en.WhatIfLinkDown(rq.ev.Link)
	}
	switch rq.ev.Type {
	case "set-weight":
		err = rp.en.SetWeight(rq.ev.Link, rq.ev.Weight)
	case "set-demand":
		err = rp.en.SetDemand(rq.ev.Src, rq.ev.Dst, rq.ev.Volume)
	case "link-down":
		err = rp.en.LinkDown(rq.ev.Link)
	case "link-up":
		err = rp.en.LinkUp(rq.ev.Link)
	}
	return rp.en.Metrics(), err
}

// serveTraced replays the leading requests on two fresh
// spef.DeltaEngines in lockstep, each request on one untraced and on the
// other with a span per request and per engine call, and checks every
// reply against the server's. The traced engine's call times give each
// event kind's latency quantiles and, subtracted from the same request's
// round trip, the server's own overhead.
func serveTraced(r *run, model *serveModel, sent []request, replies []serve.Metrics, rtts []time.Duration) error {
	plain, err := newReplayer(model)
	if err != nil {
		return err
	}
	traced, err := newReplayer(model)
	if err != nil {
		return err
	}
	engine := make([]time.Duration, len(sent))
	runtime.GC()
	for i, rq := range sent {
		var m, tm spef.DeltaMetrics
		err := r.timedOp(func() error {
			var err error
			m, err = plain.apply(rq)
			return err
		}, func() error {
			return r.rec.op("serve.request", func(root int) error {
				return r.rec.in(root, kindSpans[rq.kind], func() error {
					t0 := time.Now()
					var err error
					tm, err = traced.apply(rq)
					engine[i] = time.Since(t0)
					return err
				})
			})
		})
		if err != nil {
			return fmt.Errorf("replaying request %d: %w", i, err)
		}
		want := metricStrings(replies[i])
		if got := deltaStrings(m); !slices.Equal(got, want) {
			r.fail("replayed request %d (%s) gives %v, the server replied %v", i, rq.ev.Type, got, want)
		}
		r.same("replayed request "+strconv.Itoa(i), want, deltaStrings(tm))
	}
	r.set["delta.allocs_per_event"] = float64(r.allocN) / float64(max(r.allocOps, 1))

	byKind := make([][]time.Duration, len(kindSpans))
	overhead := make([]time.Duration, len(sent))
	for i, rq := range sent {
		byKind[rq.kind] = append(byKind[rq.kind], engine[i])
		overhead[i] = rtts[i] - engine[i]
	}
	for k, durs := range byKind {
		r.set[kindSpans[k]+".p50_us"] = micros(quantile(durs, 0.5))
		r.set[kindSpans[k]+".p99_us"] = micros(quantile(durs, 0.99))
	}
	r.set["serve.overhead_us"] = micros(quantile(overhead, 0.5))
	return nil
}
