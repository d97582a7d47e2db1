// Package serve is the TE control-plane daemon behind `spef serve`: an
// HTTP/JSON server holding one warm delta engine (spef.DeltaEngine)
// per loaded topology. Clients load topologies through the registry
// (any spec, including zoo:file=...), post event streams — weight
// pushes, link failures and restorations, demand updates — replay
// temporal demand sequences as a live feed, score hypothetical events
// with WhatIf queries, and read current metrics; /healthz and /statz
// expose liveness, per-event-type latency percentiles and warm-arena
// memory.
//
// Every loaded topology runs a deterministic single-writer event loop:
// one goroutine owns the engine and applies requests strictly in
// arrival order, so a replayed event stream always produces the same
// state — bit-identical to a batch evaluation of the same inputs —
// regardless of client concurrency. HTTP handlers enqueue onto the
// loop and wait; nothing touches an engine from two goroutines.
package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	spef "repro"
)

// Float is a float64 that survives JSON: encoding/json rejects
// non-finite numbers, but the log-spare utility is -Inf whenever a
// link saturates — a state the daemon must be able to report, not
// 500 on. Non-finite values encode as the strings "+Inf", "-Inf",
// "NaN"; finite values round-trip bit-exactly (shortest-form float
// encoding).
type Float float64

// MarshalJSON implements json.Marshaler.
func (f Float) MarshalJSON() ([]byte, error) {
	v := float64(f)
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return json.Marshal(fmt.Sprint(v))
	}
	return json.Marshal(v)
}

// UnmarshalJSON implements json.Unmarshaler.
func (f *Float) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return err
		}
		*f = Float(v)
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// Metrics is the wire form of the engine's metric read-out.
type Metrics struct {
	Fortz   Float `json:"fortz"`
	MLU     Float `json:"mlu"`
	Utility Float `json:"utility"`
}

func fromDelta(m spef.DeltaMetrics) Metrics {
	return Metrics{Fortz: Float(m.Cost), MLU: Float(m.MLU), Utility: Float(m.Utility)}
}

// Event is the wire form of one engine event (or WhatIf query).
type Event struct {
	// Type is one of "set-weight", "link-down", "link-up", "set-demand".
	Type string `json:"type"`
	// Link is the intact-topology link ID (set-weight, link-down,
	// link-up).
	Link int `json:"link,omitempty"`
	// Weight is the pushed weight (set-weight).
	Weight float64 `json:"weight,omitempty"`
	// Src, Dst and Volume describe a demand update (set-demand).
	Src    int     `json:"src,omitempty"`
	Dst    int     `json:"dst,omitempty"`
	Volume float64 `json:"volume,omitempty"`
}

// LoadRequest loads one topology into the daemon.
type LoadRequest struct {
	// Name keys the instance (default: the resolved topology's name).
	Name string `json:"name,omitempty"`
	// Topology is a registry topology spec ("abilene",
	// "zoo:file=net.graphml", ...).
	Topology string `json:"topology"`
	// Demands optionally overrides the topology's canonical demands
	// with a demand-generator spec; a temporal sequence spec loads its
	// first step.
	Demands string `json:"demands,omitempty"`
	// Weights selects the initial weight vector: "invcap" (default,
	// the deployed OSPF default — a fresh engine reports exactly what a
	// batch invcap cell would) or "unit" (all-1).
	Weights string `json:"weights,omitempty"`
}

// EventsRequest posts an ordered event batch.
type EventsRequest struct {
	Events []Event `json:"events"`
}

// EventsResponse reports how far an event batch got and the resulting
// state. On a rejected event, Applied counts the committed prefix (the
// engine keeps that state — rejected events never corrupt it) and
// Error describes the rejection.
type EventsResponse struct {
	Applied int     `json:"applied"`
	Metrics Metrics `json:"metrics"`
	Error   string  `json:"error,omitempty"`
}

// ReplayRequest replays a temporal demand-sequence spec as a live feed
// of step-demand events.
type ReplayRequest struct {
	// Sequence is a demand-sequence spec ("gravity-diurnal:steps=24").
	Sequence string `json:"sequence"`
}

// ReplayStep is one replayed step's outcome.
type ReplayStep struct {
	Label     string  `json:"label"`
	Metrics   Metrics `json:"metrics"`
	LatencyNs int64   `json:"latency_ns"`
}

// ReplayResponse reports every replayed step in order.
type ReplayResponse struct {
	Steps []ReplayStep `json:"steps"`
}

// MetricsResponse is the current-state read-out of one topology.
type MetricsResponse struct {
	Name         string  `json:"name"`
	Metrics      Metrics `json:"metrics"`
	Down         []int   `json:"down,omitempty"`
	Destinations int     `json:"destinations"`
	Nodes        int     `json:"nodes"`
	Links        int     `json:"links"`
}

// EventStats summarizes one event type's latency distribution, how
// many destinations its events re-routed in total and how many node
// distances those re-routes moved (diagnostics: how much work the
// engine's exact screen and its DAG repair left to do).
type EventStats struct {
	Count    uint64 `json:"count"`
	TotalNs  int64  `json:"total_ns"`
	P50Ns    int64  `json:"p50_ns"`
	P99Ns    int64  `json:"p99_ns"`
	Rerouted uint64 `json:"rerouted"`
	Moved    uint64 `json:"moved"`
}

// TopoStats is one topology's /statz entry.
type TopoStats struct {
	Events         map[string]EventStats `json:"events"`
	FootprintBytes int64                 `json:"footprint_bytes"`
	Destinations   int                   `json:"destinations"`
	Down           []int                 `json:"down,omitempty"`
}

// Statz is the full /statz payload.
type Statz struct {
	UptimeSeconds float64              `json:"uptime_seconds"`
	Topologies    map[string]TopoStats `json:"topologies"`
}

// Healthz is the /healthz payload.
type Healthz struct {
	OK            bool    `json:"ok"`
	Topologies    int     `json:"topologies"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// latSamples bounds the per-event-type latency reservoir: a ring of
// the most recent samples, enough for stable p99 at daemon time scales
// without unbounded growth.
const latSamples = 4096

// latRecorder accumulates one event type's latencies. It is only
// touched from the instance's event loop.
type latRecorder struct {
	count    uint64
	totalNs  int64
	rerouted uint64
	moved    uint64
	ring     []int64
	next     int
	full     bool
}

func (r *latRecorder) record(d time.Duration, rerouted, moved uint64) {
	r.count++
	r.totalNs += d.Nanoseconds()
	r.rerouted += rerouted
	r.moved += moved
	if r.ring == nil {
		r.ring = make([]int64, 0, 64)
	}
	if len(r.ring) < latSamples && !r.full {
		r.ring = append(r.ring, d.Nanoseconds())
		if len(r.ring) == latSamples {
			r.full = true
		}
		return
	}
	r.ring[r.next] = d.Nanoseconds()
	r.next = (r.next + 1) % len(r.ring)
}

func (r *latRecorder) stats() EventStats {
	s := EventStats{Count: r.count, TotalNs: r.totalNs, Rerouted: r.rerouted, Moved: r.moved}
	if len(r.ring) == 0 {
		return s
	}
	sorted := append([]int64(nil), r.ring...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	s.P50Ns = sorted[len(sorted)*50/100]
	p99 := len(sorted) * 99 / 100
	if p99 >= len(sorted) {
		p99 = len(sorted) - 1
	}
	s.P99Ns = sorted[p99]
	return s
}

// instance is one loaded topology: its network, its warm engine, and
// the single-writer loop that owns them.
type instance struct {
	name    string
	net     *spef.Network
	eng     *spef.DeltaEngine
	scratch *spef.DeltaScratch

	reqs   chan func()
	closed chan struct{}
	once   sync.Once

	lat map[string]*latRecorder
}

func newInstance(name string, n *spef.Network, eng *spef.DeltaEngine) *instance {
	in := &instance{
		name:    name,
		net:     n,
		eng:     eng,
		scratch: eng.NewScratch(),
		reqs:    make(chan func()),
		closed:  make(chan struct{}),
		lat:     map[string]*latRecorder{},
	}
	go in.loop()
	return in
}

// loop is the deterministic single writer: requests execute strictly
// in arrival order, one at a time.
func (in *instance) loop() {
	for {
		select {
		case f := <-in.reqs:
			f()
		case <-in.closed:
			return
		}
	}
}

// run executes f on the event loop and waits for it. It returns false
// if the instance was closed (f did not run).
func (in *instance) run(f func()) bool {
	done := make(chan struct{})
	select {
	case in.reqs <- func() { f(); close(done) }:
		<-done
		return true
	case <-in.closed:
		return false
	}
}

func (in *instance) close() { in.once.Do(func() { close(in.closed) }) }

// timed runs one event body on the calling (loop) goroutine and
// records its latency, re-routed destinations and moved distances under
// the event type.
func (in *instance) timed(typ string, f func() error) error {
	rerouted, moved := in.eng.Rerouted(), in.eng.Moved()
	start := time.Now()
	err := f()
	d := time.Since(start)
	rec := in.lat[typ]
	if rec == nil {
		rec = &latRecorder{}
		in.lat[typ] = rec
	}
	rec.record(d, in.eng.Rerouted()-rerouted, in.eng.Moved()-moved)
	return err
}

// apply dispatches one wire event to the engine. Runs on the loop.
func (in *instance) apply(ev Event) error {
	switch ev.Type {
	case "set-weight":
		return in.timed(ev.Type, func() error { return in.eng.SetWeight(ev.Link, ev.Weight) })
	case "link-down":
		return in.timed(ev.Type, func() error { return in.eng.LinkDown(ev.Link) })
	case "link-up":
		return in.timed(ev.Type, func() error { return in.eng.LinkUp(ev.Link) })
	case "set-demand":
		return in.timed(ev.Type, func() error { return in.eng.SetDemand(ev.Src, ev.Dst, ev.Volume) })
	default:
		return fmt.Errorf("%w: unknown event type %q (known: set-weight, link-down, link-up, set-demand)",
			spef.ErrBadInput, ev.Type)
	}
}

// whatIf scores one wire event without committing it. Runs on the
// loop, which serializes access to the instance scratch.
func (in *instance) whatIf(ev Event) (spef.DeltaMetrics, error) {
	var m spef.DeltaMetrics
	err := in.timed("whatif", func() error {
		var err error
		switch ev.Type {
		case "set-weight":
			m, err = in.eng.WhatIfWeight(in.scratch, ev.Link, ev.Weight)
		case "link-down":
			m, err = in.eng.WhatIfLinkDown(ev.Link)
		case "link-up":
			m, err = in.eng.WhatIfLinkUp(ev.Link)
		case "set-demand":
			m, err = in.eng.WhatIfDemand(in.scratch, ev.Src, ev.Dst, ev.Volume)
		default:
			err = fmt.Errorf("%w: unknown event type %q (known: set-weight, link-down, link-up, set-demand)",
				spef.ErrBadInput, ev.Type)
		}
		return err
	})
	return m, err
}

func (in *instance) metricsResponse() MetricsResponse {
	return MetricsResponse{
		Name:         in.name,
		Metrics:      fromDelta(in.eng.Metrics()),
		Down:         in.eng.Down(),
		Destinations: in.eng.NumDestinations(),
		Nodes:        in.eng.NumNodes(),
		Links:        in.eng.NumLinks(),
	}
}

func (in *instance) stats() TopoStats {
	st := TopoStats{
		Events:         make(map[string]EventStats, len(in.lat)),
		FootprintBytes: in.eng.Footprint(),
		Destinations:   in.eng.NumDestinations(),
		Down:           in.eng.Down(),
	}
	for typ, rec := range in.lat {
		st.Events[typ] = rec.stats()
	}
	return st
}

// Options tunes a Server.
type Options struct {
	// Log, when non-nil, receives one line per load/unload and per
	// replayed sequence.
	Log func(format string, args ...any)
}

// Server is the control-plane daemon: a registry-backed topology
// loader in front of per-topology warm delta engines.
type Server struct {
	opts  Options
	mux   *http.ServeMux
	start time.Time

	mu    sync.RWMutex
	topos map[string]*instance
}

// New returns a Server with no topologies loaded.
func New(opts Options) *Server {
	s := &Server{
		opts:  opts,
		mux:   http.NewServeMux(),
		start: time.Now(),
		topos: map[string]*instance{},
	}
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /statz", s.handleStatz)
	s.mux.HandleFunc("GET /v1/topologies", s.handleList)
	s.mux.HandleFunc("POST /v1/topologies", s.handleLoad)
	s.mux.HandleFunc("GET /v1/topologies/{name}", s.handleMetrics)
	s.mux.HandleFunc("DELETE /v1/topologies/{name}", s.handleUnload)
	s.mux.HandleFunc("GET /v1/topologies/{name}/metrics", s.handleMetrics)
	s.mux.HandleFunc("POST /v1/topologies/{name}/events", s.handleEvents)
	s.mux.HandleFunc("POST /v1/topologies/{name}/whatif", s.handleWhatIf)
	s.mux.HandleFunc("POST /v1/topologies/{name}/replay", s.handleReplay)
	return s
}

// Handler returns the daemon's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops every instance's event loop. In-flight requests drain;
// later requests against the instances fail.
func (s *Server) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, in := range s.topos {
		in.close()
	}
	s.topos = map[string]*instance{}
}

// ListenAndServe serves the daemon on addr until ctx is cancelled,
// then shuts down gracefully: the listener stops, in-flight requests
// get shutdownGrace to finish, and every event loop is closed. The
// returned error is nil on a clean ctx-driven shutdown. Ready, when
// non-nil, receives the bound address once the listener is up (so
// callers can use ":0").
func (s *Server) ListenAndServe(ctx context.Context, addr string, ready chan<- net.Addr) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr()
	}
	return s.Serve(ctx, ln)
}

// shutdownGrace bounds how long graceful shutdown waits for in-flight
// requests.
const shutdownGrace = 5 * time.Second

// readHeaderTimeout bounds how long a client may take to send a
// request's headers, so a stalled client cannot hold a connection. The
// server sets no write timeout: a long replay is a legitimate slow
// response.
var readHeaderTimeout = 10 * time.Second

// Serve serves on ln until ctx is cancelled (see ListenAndServe).
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: s.mux, ReadHeaderTimeout: readHeaderTimeout}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		defer cancel()
		err := srv.Shutdown(sctx)
		s.Close()
		<-errc // always http.ErrServerClosed after Shutdown
		return err
	case err := <-errc:
		s.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return err
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		s.opts.Log(format, args...)
	}
}

func (s *Server) instance(name string) *instance {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.topos[name]
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

type errorBody struct {
	Error string `json:"error"`
}

// writeError maps an error onto an HTTP status: bad input is the
// client's fault, the rest is ours.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	if errors.Is(err, spef.ErrBadInput) {
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// maxBodyBytes bounds every request body. The largest legitimate one
// is an event batch, and 8 MiB holds about 100,000 events.
const maxBodyBytes = 8 << 20

// readJSON decodes the request body into v: one JSON value, followed by
// nothing but white space. It answers a malformed body with 400 and one
// over maxBodyBytes with 413, both in the errorBody shape.
func readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	if err == nil {
		var rest []byte
		rest, err = io.ReadAll(io.MultiReader(dec.Buffered(), body))
		if err == nil && len(bytes.Trim(rest, " \t\r\n")) > 0 {
			err = errors.New("data after the JSON value")
		}
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorBody{Error: fmt.Sprintf("parsing request body: %v", err)})
	return false
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.topos)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, Healthz{OK: true, Topologies: n, UptimeSeconds: time.Since(s.start).Seconds()})
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	instances := make([]*instance, 0, len(s.topos))
	for _, in := range s.topos {
		instances = append(instances, in)
	}
	s.mu.RUnlock()
	out := Statz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Topologies:    make(map[string]TopoStats, len(instances)),
	}
	for _, in := range instances {
		var st TopoStats
		if in.run(func() { st = in.stats() }) {
			out.Topologies[in.name] = st
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.topos))
	for name := range s.topos {
		names = append(names, name)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string][]string{"topologies": names})
}

func (s *Server) handleLoad(w http.ResponseWriter, r *http.Request) {
	var req LoadRequest
	if !readJSON(w, r, &req) {
		return
	}
	name, in, err := s.load(req)
	if err != nil {
		writeError(w, err)
		return
	}
	s.logf("serve: loaded %q (%d nodes, %d links, %d destinations)",
		name, in.eng.NumNodes(), in.eng.NumLinks(), in.eng.NumDestinations())
	writeJSON(w, http.StatusOK, in.metricsResponse())
}

// Load loads one topology outside the HTTP surface — the startup
// -load flag's path. It resolves specs exactly like POST
// /v1/topologies.
func (s *Server) Load(req LoadRequest) error {
	name, in, err := s.load(req)
	if err != nil {
		return err
	}
	s.logf("serve: loaded %q (%d nodes, %d links, %d destinations)",
		name, in.eng.NumNodes(), in.eng.NumLinks(), in.eng.NumDestinations())
	return nil
}

// load resolves a LoadRequest into a running instance.
func (s *Server) load(req LoadRequest) (string, *instance, error) {
	if req.Topology == "" {
		return "", nil, fmt.Errorf("%w: load request needs a topology spec", spef.ErrBadInput)
	}
	t, err := spef.ResolveTopology(req.Topology)
	if err != nil {
		return "", nil, err
	}
	d := t.Demands
	if len(t.Steps) > 0 && d == nil {
		d = t.Steps[0].Demands
	}
	if req.Demands != "" {
		steps, isSeq, err := spef.ResolveDemandSequence(req.Demands, t.Network)
		if err != nil {
			return "", nil, err
		}
		if isSeq {
			d = steps[0].Demands
		} else if d, err = spef.ResolveDemands(req.Demands, t.Network); err != nil {
			return "", nil, err
		}
	}
	if d == nil {
		return "", nil, fmt.Errorf("%w: topology %q has no demands; provide a demands spec", spef.ErrBadInput, req.Topology)
	}
	var weights []float64
	switch req.Weights {
	case "", "invcap":
		// nil selects InvCap inside NewDeltaEngine.
	case "unit":
		weights = make([]float64, t.Network.NumLinks())
		for i := range weights {
			weights[i] = 1
		}
	default:
		return "", nil, fmt.Errorf("%w: unknown weights %q (known: invcap, unit)", spef.ErrBadInput, req.Weights)
	}
	eng, err := spef.NewDeltaEngine(t.Network, d, weights)
	if err != nil {
		return "", nil, err
	}
	name := req.Name
	if name == "" {
		name = t.Name
	}
	in := newInstance(name, t.Network, eng)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.topos[name]; exists {
		in.close()
		return "", nil, fmt.Errorf("%w: topology %q is already loaded", spef.ErrBadInput, name)
	}
	s.topos[name] = in
	return name, in, nil
}

func (s *Server) handleUnload(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	s.mu.Lock()
	in, ok := s.topos[name]
	if ok {
		delete(s.topos, name)
	}
	s.mu.Unlock()
	if !ok {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("topology %q is not loaded", name)})
		return
	}
	in.close()
	s.logf("serve: unloaded %q", name)
	writeJSON(w, http.StatusOK, map[string]string{"unloaded": name})
}

// lookup fetches a loaded instance or writes a 404.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) *instance {
	name := r.PathValue("name")
	in := s.instance(name)
	if in == nil {
		writeJSON(w, http.StatusNotFound, errorBody{Error: fmt.Sprintf("topology %q is not loaded", name)})
	}
	return in
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	in := s.lookup(w, r)
	if in == nil {
		return
	}
	var resp MetricsResponse
	if !in.run(func() { resp = in.metricsResponse() }) {
		writeJSON(w, http.StatusGone, errorBody{Error: "topology was unloaded"})
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	in := s.lookup(w, r)
	if in == nil {
		return
	}
	var req EventsRequest
	if !readJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 {
		writeError(w, fmt.Errorf("%w: event batch is empty", spef.ErrBadInput))
		return
	}
	var resp EventsResponse
	var failed error
	ok := in.run(func() {
		for _, ev := range req.Events {
			if err := in.apply(ev); err != nil {
				failed = err
				break
			}
			resp.Applied++
		}
		resp.Metrics = fromDelta(in.eng.Metrics())
	})
	if !ok {
		writeJSON(w, http.StatusGone, errorBody{Error: "topology was unloaded"})
		return
	}
	if failed != nil {
		resp.Error = failed.Error()
		status := http.StatusInternalServerError
		if errors.Is(failed, spef.ErrBadInput) {
			status = http.StatusBadRequest
		}
		writeJSON(w, status, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	in := s.lookup(w, r)
	if in == nil {
		return
	}
	var ev Event
	if !readJSON(w, r, &ev) {
		return
	}
	var m spef.DeltaMetrics
	var err error
	if !in.run(func() { m, err = in.whatIf(ev) }) {
		writeJSON(w, http.StatusGone, errorBody{Error: "topology was unloaded"})
		return
	}
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]Metrics{"metrics": fromDelta(m)})
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	in := s.lookup(w, r)
	if in == nil {
		return
	}
	var req ReplayRequest
	if !readJSON(w, r, &req) {
		return
	}
	steps, isSeq, err := spef.ResolveDemandSequence(req.Sequence, in.net)
	if err != nil {
		writeError(w, err)
		return
	}
	if !isSeq {
		writeError(w, fmt.Errorf("%w: %q is not a temporal demand-sequence spec", spef.ErrBadInput, req.Sequence))
		return
	}
	resp := ReplayResponse{Steps: make([]ReplayStep, 0, len(steps))}
	var failed error
	ok := in.run(func() {
		for _, st := range steps {
			start := time.Now()
			err := in.timed("step-demands", func() error { return in.eng.StepDemands(st.Demands) })
			if err != nil {
				failed = fmt.Errorf("step %q: %w", st.Label, err)
				return
			}
			resp.Steps = append(resp.Steps, ReplayStep{
				Label:     st.Label,
				Metrics:   fromDelta(in.eng.Metrics()),
				LatencyNs: time.Since(start).Nanoseconds(),
			})
		}
	})
	if !ok {
		writeJSON(w, http.StatusGone, errorBody{Error: "topology was unloaded"})
		return
	}
	if failed != nil {
		writeError(w, failed)
		return
	}
	s.logf("serve: replayed %q on %q (%d steps)", req.Sequence, in.name, len(resp.Steps))
	writeJSON(w, http.StatusOK, resp)
}
