package bench

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	spef "repro"
)

// ServeLatency is the measured per-event latency distribution of one
// event type on one topology's warm delta engine — the per-event cost
// `spef serve`'s single-writer loop pays. Latencies are wall-clock
// and machine-dependent; allocs/op is machine-portable and gated by
// Check (the daemon's steady state must not start allocating).
type ServeLatency struct {
	// Name is "<topology>/<event>" ("abilene/set-weight", ...).
	Name string `json:"name"`
	// Events is the number of events timed (after warm-up).
	Events int `json:"events"`
	// P50Ns/P99Ns/MeanNs summarize the per-event latency distribution.
	P50Ns  int64   `json:"p50_ns"`
	P99Ns  int64   `json:"p99_ns"`
	MeanNs float64 `json:"mean_ns"`
	// AllocsPerOp is heap allocations per event in steady state.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// zooFixture locates the committed Topology-Zoo GraphML sample from
// either the repo root (`spef bench`) or internal/bench (go test).
func zooFixture() (string, error) {
	for _, p := range []string{
		"internal/topoio/testdata/testnet.graphml",
		"../topoio/testdata/testnet.graphml",
	} {
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
	}
	return "", fmt.Errorf("bench: zoo fixture testnet.graphml not found from %s", mustGetwd())
}

func mustGetwd() string {
	wd, err := os.Getwd()
	if err != nil {
		return "?"
	}
	return wd
}

// serveInstance is one warm engine plus the inputs its event streams
// need.
type serveInstance struct {
	name  string
	net   *spef.Network
	eng   *spef.DeltaEngine
	steps []spef.DemandStep
	pair  [2]int // a routable duplex pair for flap events
}

func newServeInstance(name, spec string) (*serveInstance, error) {
	t, err := spef.ResolveTopology(spec)
	if err != nil {
		return nil, err
	}
	d := t.Demands
	if d == nil && len(t.Steps) > 0 {
		d = t.Steps[0].Demands
	}
	eng, err := spef.NewDeltaEngine(t.Network, d, nil)
	if err != nil {
		return nil, err
	}
	steps, isSeq, err := spef.ResolveDemandSequence("gravity-diurnal:steps=8,seed=5", t.Network)
	if err != nil || !isSeq {
		return nil, fmt.Errorf("bench: resolving diurnal sequence for %s: isSeq=%v err=%v", name, isSeq, err)
	}
	in := &serveInstance{name: name, net: t.Network, eng: eng, steps: steps}
	if in.pair, err = routableFlapPair(eng, t.Network); err != nil {
		return nil, err
	}
	return in, nil
}

// routableFlapPair finds a duplex pair the engine accepts failing
// (both directions), leaving the engine intact.
func routableFlapPair(eng *spef.DeltaEngine, n *spef.Network) ([2]int, error) {
	for _, pair := range n.DuplexPairs() {
		if err := eng.LinkDown(pair[0]); err != nil {
			continue
		}
		if err := eng.LinkDown(pair[1]); err != nil {
			if err := eng.LinkUp(pair[0]); err != nil {
				return [2]int{}, err
			}
			continue
		}
		if err := eng.LinkUp(pair[0]); err != nil {
			return [2]int{}, err
		}
		if err := eng.LinkUp(pair[1]); err != nil {
			return [2]int{}, err
		}
		return pair, nil
	}
	return [2]int{}, fmt.Errorf("bench: no routable duplex pair on %d links", n.NumLinks())
}

// measureEvents times n events driven by step (which applies event i
// and returns any error), recording per-event latency and steady-state
// allocations.
func measureEvents(name string, n, warmup int, step func(i int) error) (ServeLatency, error) {
	for i := 0; i < warmup; i++ {
		if err := step(i); err != nil {
			return ServeLatency{}, fmt.Errorf("bench: %s warm-up event %d: %w", name, i, err)
		}
	}
	lats := make([]int64, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var total int64
	for i := 0; i < n; i++ {
		start := time.Now()
		err := step(warmup + i)
		lats[i] = time.Since(start).Nanoseconds()
		if err != nil {
			return ServeLatency{}, fmt.Errorf("bench: %s event %d: %w", name, warmup+i, err)
		}
		total += lats[i]
	}
	runtime.ReadMemStats(&after)
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	p99 := n * 99 / 100
	if p99 >= n {
		p99 = n - 1
	}
	return ServeLatency{
		Name:        name,
		Events:      n,
		P50Ns:       lats[n/2],
		P99Ns:       lats[p99],
		MeanNs:      float64(total) / float64(n),
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(n),
	}, nil
}

// serveLatency measures every daemon event type on the Abilene
// topology and the committed zoo fixture — the two networks the
// control-plane docs quote latency numbers for.
func serveLatency(quick bool) ([]ServeLatency, error) {
	zoo, err := zooFixture()
	if err != nil {
		return nil, err
	}
	specs := []struct{ name, spec string }{
		{"abilene", "abilene"},
		{"zoo", "zoo:file=" + zoo},
	}
	n, warmup := 512, 32
	if quick {
		n, warmup = 96, 8
	}
	var out []ServeLatency
	for _, sp := range specs {
		in, err := newServeInstance(sp.name, sp.spec)
		if err != nil {
			return nil, err
		}
		eng, nodes, links := in.eng, in.net.NumNodes(), in.net.NumLinks()
		streams := []struct {
			event string
			step  func(i int) error
		}{
			// The same deterministic (link, weight) cycle the lsweightchange
			// kernel walks, through the engine's event surface.
			{"set-weight", func(i int) error {
				return eng.SetWeight(i*7%links, float64(1+i%19))
			}},
			// One matrix entry nudged per event, cycling source/destination
			// pairs; volumes stay positive so no destination ever drains.
			{"set-demand", func(i int) error {
				src := i % nodes
				dst := (src + 1 + i%(nodes-1)) % nodes
				return eng.SetDemand(src, dst, 0.5+float64(i%7))
			}},
			// A diurnal demand feed: whole-matrix steps, cycling the
			// sequence — the replay endpoint's per-step cost.
			{"step-demands", func(i int) error {
				return eng.StepDemands(in.steps[i%len(in.steps)].Demands)
			}},
			// Fail and restore one duplex pair, alternating: every event is
			// a LinkDown or LinkUp weight event (+Inf, then the recorded
			// weight) on the warm state.
			{"link-flap", func(i int) error {
				link := in.pair[i%2]
				if i%4 < 2 {
					return eng.LinkDown(link)
				}
				return eng.LinkUp(link)
			}},
		}
		for _, st := range streams {
			count := n
			if st.event == "link-flap" {
				// The budget dates from when a flap re-evaluated every
				// destination; it is kept so reports stay comparable.
				count = min(n, 128)
			}
			m, err := measureEvents(sp.name+"/"+st.event, count, warmup, st.step)
			if err != nil {
				return nil, err
			}
			out = append(out, m)
		}
	}
	return out, nil
}
