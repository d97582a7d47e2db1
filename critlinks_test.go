package spef

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/delta"
	"repro/internal/routing"
)

// critlinksNorm zeroes the runtime_ms field — the only nondeterministic
// byte of the JSONL — exactly as the CI smoke job's sed does.
var critlinksNorm = regexp.MustCompile(`"runtime_ms":[0-9.e+-]+`)

func normalizeCritlinks(data []byte) string {
	return critlinksNorm.ReplaceAllString(string(data), `"runtime_ms":0`)
}

const (
	critlinksGoldenPath     = "testdata/critlinks.golden.jsonl"
	critlinksDualGoldenPath = "testdata/critlinks-dual.golden.jsonl"
)

// critlinksFixture resolves the committed Topology Zoo fixture with
// gravity demands at load 0.2 — the same instance the ladder golden
// pins, so the two goldens describe one network.
func critlinksFixture(t *testing.T) (*Network, *Demands) {
	t.Helper()
	topo, err := ResolveTopology("zoo:file=internal/topoio/testdata/testnet.graphml")
	if err != nil {
		t.Fatal(err)
	}
	d, err := ResolveDemands("gravity", topo.Network)
	if err != nil {
		t.Fatal(err)
	}
	if d, err = d.ScaledToLoad(topo.Network, 0.2); err != nil {
		t.Fatal(err)
	}
	return topo.Network, d
}

// TestCriticalLinksGolden byte-compares the single-failure criticality
// ranking of the zoo fixture (InvCap weights — the deployed default)
// against the committed golden JSONL, runtimes normalized. The CI
// critlinks-smoke job replays the identical analysis through `spef
// critlinks` and diffs the same file. Regenerate with UPDATE_GOLDEN=1
// after an intentional change.
func TestCriticalLinksGolden(t *testing.T) {
	checkCritlinksGolden(t, "", critlinksGoldenPath)
}

// TestCriticalLinksDualGolden byte-compares the dual ranking of the
// same instance against its committed golden, runtimes normalized; the
// CI critlinks-smoke job diffs `spef critlinks -failures dual` against
// the same file. Most of its rows are outages that name the partner
// whose pairing strands demand, so the golden pins the scan's early
// exit and its tie-breaking as well as the MLUs.
func TestCriticalLinksDualGolden(t *testing.T) {
	rows := checkCritlinksGolden(t, "dual", critlinksDualGoldenPath)
	var outages int
	for _, r := range rows {
		if !r.Routable && r.WorstWith != "" {
			outages++
		}
	}
	if outages == 0 {
		t.Error("no dual row is an outage with a partner: the golden no longer reaches the early exit")
	}
}

// checkCritlinksGolden ranks the zoo fixture's failure units under the
// failures spec, byte-compares the normalized JSONL with the golden at
// path (UPDATE_GOLDEN=1 rewrites it) and checks that the ranking is
// well formed: ranks 1..n, regret non-increasing, every base_mlu
// identical. It returns the rows.
func checkCritlinksGolden(t *testing.T, failures, path string) []CriticalLink {
	t.Helper()
	n, d := critlinksFixture(t)
	rows, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Failures: failures})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCriticalLinksJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := normalizeCritlinks(buf.Bytes())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return rows
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run %s)", err, t.Name())
	}
	if got != string(want) {
		t.Fatalf("critlinks output drifted from %s.\n got: %s\nwant: %s\nRegenerate with UPDATE_GOLDEN=1 if intentional.",
			path, got, want)
	}
	for i, r := range rows {
		if r.Rank != i+1 {
			t.Errorf("row %d has rank %d", i, r.Rank)
		}
		if i > 0 && r.Regret > rows[i-1].Regret {
			t.Errorf("regret increases at rank %d: %v after %v", r.Rank, r.Regret, rows[i-1].Regret)
		}
		if r.BaseMLU != rows[0].BaseMLU {
			t.Errorf("row %d base MLU %v differs from %v", i, r.BaseMLU, rows[0].BaseMLU)
		}
	}
	return rows
}

// TestCriticalLinksDeterministicAcrossWorkerCounts: the workers'
// concurrent what-ifs on one shared engine must not leak scheduling
// into results — any worker count produces byte-identical JSONL
// (runtimes normalized).
func TestCriticalLinksDeterministicAcrossWorkerCounts(t *testing.T) {
	n, d := critlinksFixture(t)
	var baseline string
	for _, workers := range []int{1, 3, 8} {
		rows, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Failures: "dual", Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := WriteCriticalLinksJSONL(&buf, rows); err != nil {
			t.Fatal(err)
		}
		got := normalizeCritlinks(buf.Bytes())
		if baseline == "" {
			baseline = got
			continue
		}
		if got != baseline {
			t.Errorf("workers=%d ranking differs from workers=1:\n got: %s\nwant: %s", workers, got, baseline)
		}
	}
}

// TestCriticalLinksDualDominatesSingle: in dual mode each unit's score
// is its worst pairing, so no unit can score below its own single
// failure; units that found a worsening partner name it in WorstWith.
func TestCriticalLinksDualDominatesSingle(t *testing.T) {
	n, d := gridNetwork(t)
	single, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Failures: "single"})
	if err != nil {
		t.Fatal(err)
	}
	dual, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Failures: "dual"})
	if err != nil {
		t.Fatal(err)
	}
	if len(single) != len(dual) {
		t.Fatalf("single ranks %d units, dual %d — both rank every duplex pair", len(single), len(dual))
	}
	singleMLU := make(map[string]float64, len(single))
	for _, r := range single {
		singleMLU[r.Link] = r.MLU
	}
	var paired int
	for _, r := range dual {
		if r.MLU < singleMLU[r.Link] {
			t.Errorf("unit %s: dual worst case %v below its single-failure MLU %v", r.Link, r.MLU, singleMLU[r.Link])
		}
		if r.WorstWith != "" {
			paired++
			if r.MLU <= singleMLU[r.Link] {
				t.Errorf("unit %s names partner %s but its worst case %v does not beat the solo failure %v",
					r.Link, r.WorstWith, r.MLU, singleMLU[r.Link])
			}
		}
	}
	if paired == 0 {
		t.Error("no dual unit found a worsening partner on ring5 — WorstWith never exercised")
	}
}

// TestCriticalLinksOutageRanksFirst: a bridge whose loss strands demand
// must rank first with +Inf MLU, Routable=false, and the JSONL "+inf"
// spelling.
func TestCriticalLinksOutageRanksFirst(t *testing.T) {
	// Two triangles joined by one bridge, with demand crossing it.
	n := NewNetwork()
	for i := 0; i < 6; i++ {
		n.AddNode(string(rune('a' + i)))
	}
	for _, p := range [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}, {2, 3}} {
		if _, _, err := n.AddDuplex(p[0], p[1], 10); err != nil {
			t.Fatal(err)
		}
	}
	d := NewDemands(n)
	if err := d.Add(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	rows, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0].Link != "c-d" {
		t.Fatalf("top-ranked unit = %s, want the bridge c-d", rows[0].Link)
	}
	if rows[0].Routable || !math.IsInf(rows[0].MLU, 1) || !math.IsInf(rows[0].Regret, 1) {
		t.Fatalf("bridge row = %+v, want unroutable +Inf", rows[0])
	}
	for _, r := range rows[1:] {
		if !r.Routable {
			t.Errorf("non-bridge unit %s reported unroutable", r.Link)
		}
	}
	var buf bytes.Buffer
	if err := WriteCriticalLinksJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	first, _, _ := strings.Cut(buf.String(), "\n")
	if !strings.Contains(first, `"mlu":"+inf"`) || !strings.Contains(first, `"routable":false`) {
		t.Errorf("outage row JSONL = %s, want +inf spelling and routable:false", first)
	}
}

// TestCriticalLinksRouterWeights: a weight-backed router supplies the
// analyzed vector; routers without a single ECMP weight vector are
// rejected; explicit Weights are honored when no Router is given.
func TestCriticalLinksRouterWeights(t *testing.T) {
	n, d := gridNetwork(t)
	opt, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{
		Router: OSPFLocalSearch(LocalSearchOptions{MaxEvals: 100, Seed: 1}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(opt) == 0 {
		t.Fatal("no rows from router-weighted ranking")
	}
	// The same vector passed explicitly must reproduce the ranking.
	routes, err := OSPFLocalSearch(LocalSearchOptions{MaxEvals: 100, Seed: 1}).Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Weights: routes.ecmpWeights})
	if err != nil {
		t.Fatal(err)
	}
	// A blank failure spec, like the empty one, ranks the single units.
	blank, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Weights: routes.ecmpWeights, Failures: "  "})
	if err != nil {
		t.Fatal(err)
	}
	for i := range opt {
		if opt[i].Link != explicit[i].Link || opt[i].MLU != explicit[i].MLU {
			t.Fatalf("row %d: router path %+v, explicit weights %+v", i, opt[i], explicit[i])
		}
		if blank[i].Link != explicit[i].Link || blank[i].MLU != explicit[i].MLU {
			t.Fatalf("row %d: blank failure spec %+v, empty %+v", i, blank[i], explicit[i])
		}
	}
	// PEFT forwards by exponential penalties, not one ECMP vector.
	_, err = RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Router: PEFT(nil, WithMaxIterations(50))})
	if err == nil || !strings.Contains(err.Error(), "no single OSPF/ECMP weight vector") {
		t.Fatalf("PEFT-weighted ranking err = %v, want rejection", err)
	}
	// Unknown failure spec surfaces the registry error.
	if _, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{Failures: "duel"}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("bad spec err = %v, want ErrBadInput", err)
	}
	if _, err := RankCriticalLinks(t.Context(), nil, nil, CriticalLinksOptions{}); !errors.Is(err, ErrBadInput) {
		t.Fatalf("nil inputs err = %v, want ErrBadInput", err)
	}
}

// TestCriticalLinksSRLGMode ranks gridNetwork's SRLG groups: the
// ranking covers exactly the file's groups, including the one whose
// loss is an outage (ranked first — the analysis keeps what the Grid
// must skip).
func TestCriticalLinksSRLGMode(t *testing.T) {
	n, d := gridNetwork(t)
	rows, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{
		Failures: "srlg:file=" + ring5SRLG(t),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want 3 groups", len(rows))
	}
	if rows[0].Link != "cut-v4" || rows[0].Routable {
		t.Fatalf("top row = %+v, want unroutable cut-v4", rows[0])
	}
	got := map[string]bool{}
	for _, r := range rows {
		got[r.Link] = true
		if r.WorstWith != "" {
			t.Errorf("srlg row %s has WorstWith %q, want empty", r.Link, r.WorstWith)
		}
	}
	for _, want := range []string{"conduit-a", "spur", "cut-v4"} {
		if !got[want] {
			t.Errorf("group %s missing from ranking", want)
		}
	}
}

// TestWorstFailureMLUMetric pins fail_mlu: it equals the maximum
// from-scratch MLU over the intact state and every routable single
// duplex failure, returns +Inf when any failure strands demand, and
// rejects routers with no ECMP weight vector.
func TestWorstFailureMLUMetric(t *testing.T) {
	n, d := gridNetwork(t)
	routes, err := OSPF(nil).Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	report, err := routes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	ms, err := MetricsByName(MetricFailMLU)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ms[0].Compute(routes, d, report)
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: evaluate every single-failure variant from scratch with
	// the same weights projected onto the survivors.
	want := report.MLU
	units, err := singleFailures.routableUnits(n, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range units {
		vn, keep, err := n.WithoutLinks(u.links...)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]float64, vn.NumLinks())
		for newID, oldID := range keep {
			w[newID] = routes.ecmpWeights[oldID]
		}
		vr, err := OSPF(w).Routes(context.Background(), vn, d)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := vr.Evaluate(d)
		if err != nil {
			t.Fatal(err)
		}
		if rep.MLU > want {
			want = rep.MLU
		}
	}
	if got != want {
		t.Fatalf("fail_mlu = %v, from-scratch worst = %v", got, want)
	}
	if got < report.MLU {
		t.Fatalf("fail_mlu %v below intact MLU %v", got, report.MLU)
	}

	// A stranding failure turns the metric into +Inf.
	bridge := NewNetwork()
	for i := 0; i < 3; i++ {
		bridge.AddNode(string(rune('a' + i)))
	}
	for _, p := range [][2]int{{0, 1}, {1, 2}} {
		if _, _, err := bridge.AddDuplex(p[0], p[1], 5); err != nil {
			t.Fatal(err)
		}
	}
	bd := NewDemands(bridge)
	if err := bd.Add(0, 2, 1); err != nil {
		t.Fatal(err)
	}
	brRoutes, err := OSPF(nil).Routes(context.Background(), bridge, bd)
	if err != nil {
		t.Fatal(err)
	}
	brReport, err := brRoutes.Evaluate(bd)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := ms[0].Compute(brRoutes, bd, brReport); err != nil || !math.IsInf(v, 1) {
		t.Fatalf("fail_mlu on a chain = %v, %v, want +Inf", v, err)
	}

	// PEFT records no single ECMP vector.
	pRoutes, err := PEFT(nil, WithMaxIterations(50)).Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	pReport, err := pRoutes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ms[0].Compute(pRoutes, d, pReport); err == nil || !errors.Is(err, ErrBadInput) {
		t.Fatalf("fail_mlu on PEFT routes err = %v, want ErrBadInput", err)
	}
}

// rankDualFromIntact is the dual ranking as the scan that preceded the
// shared pair table computed it, kept as the oracle: one worker, every
// pairing a what-if of both units' links on the intact engine.
func rankDualFromIntact(t *testing.T, n *Network, d *Demands, w []float64) []CriticalLink {
	t.Helper()
	if w == nil {
		w = routing.InvCapWeights(n.g)
	}
	units, err := singleFailures.units(n)
	if err != nil {
		t.Fatal(err)
	}
	en, err := delta.NewEngine(n.g, d.m, w)
	if err != nil {
		t.Fatal(err)
	}
	base := en.Metrics().MLU
	s := en.NewScratch()
	dual := true
	rows := make([]CriticalLink, len(units))
	for i := range units {
		row := CriticalLink{Link: units[i].label, BaseMLU: base}
		worst, routable := failMLU(en, s, units[i].links)
		worstWith := ""
		if dual && routable {
			// Worst pairing: scan partners in enumeration order; the
			// first unroutable partner is conclusive (+Inf beats any
			// finite MLU), strict > keeps ties on the earliest partner.
			var pair []int
			for j := range units {
				if j == i {
					continue
				}
				pair = append(append(pair[:0], units[i].links...), units[j].links...)
				m, ok := failMLU(en, s, pair)
				if m > worst {
					worst, worstWith = m, units[j].label
				}
				if !ok {
					break
				}
			}
		}
		row.MLU = worst
		row.Regret = worst - base
		row.Routable = !math.IsInf(worst, 1)
		row.WorstWith = worstWith
		rows[i] = row
	}
	sort.SliceStable(rows, func(a, b int) bool { return rows[a].Regret > rows[b].Regret })
	for i := range rows {
		rows[i].Rank = i + 1
	}
	return rows
}

// TestCriticalLinksDualMatchesIntactScan checks the dual ranking, at 1,
// 2 and 5 workers, against rankDualFromIntact bit for bit (runtimes
// aside) on random instances: sparse Waxman, Barabási–Albert and grid
// networks, where many pairs strand demand and the scan stops early,
// and dense random ones, under InvCap, random integer weights and one
// local-search weight vector. The battery must reach every way a row
// can end: a unit whose own failure strands demand, an outage found at
// a partner, a finite worst partner and a unit no partner worsens.
func TestCriticalLinksDualMatchesIntactScan(t *testing.T) {
	type instance struct {
		name    string
		net     func() (*Network, *Demands)
		weights string // "" (InvCap), "random", "unit" or "ospf-ls"
	}
	gravity := func(topo string, seed int, load float64) func() (*Network, *Demands) {
		return func() (*Network, *Demands) {
			tp, err := ResolveTopology(topo)
			if err != nil {
				t.Fatal(err)
			}
			d, err := ResolveDemands(fmt.Sprintf("gravity:seed=%d", seed), tp.Network)
			if err != nil {
				t.Fatal(err)
			}
			if d, err = d.ScaledToLoad(tp.Network, load); err != nil {
				t.Fatal(err)
			}
			return tp.Network, d
		}
	}
	var cases []instance
	add := func(topo string, load float64, weights string) {
		cases = append(cases, instance{topo, gravity(topo, len(cases)+1, load), weights})
	}
	for seed := 1; seed <= 5; seed++ {
		weights := []string{"", "random"}[seed%2]
		add(fmt.Sprintf("waxman:n=14,alpha=0.3,beta=0.25,seed=%d", seed), 0.05*float64(seed), weights)
		add(fmt.Sprintf("ba:n=14,m=%d,seed=%d", 1+seed%2, seed), 0.05*float64(seed), weights)
		add(fmt.Sprintf("grid:rows=3,cols=%d", 3+seed%3), 0.05*float64(seed), weights)
		add(fmt.Sprintf("rand:n=10,links=44,seed=%d", seed), 0.05*float64(seed), weights)
	}
	for seed := 5; seed <= 8; seed++ {
		add(fmt.Sprintf("waxman:n=18,alpha=0.5,beta=0.3,seed=%d", seed), 0.15, "")
		add(fmt.Sprintf("rand:n=12,links=60,seed=%d", seed), 0.2, "random")
	}
	add("abilene", 0.2, "")
	add("abilene", 0.2, "ospf-ls")
	add("grid:rows=3,cols=3,wrap=1", 0.3, "random")
	// One heavy demand on a thin direct link of K5 under unit weights:
	// no other failure moves it, so every other unit is its own worst
	// case, tied with each partner but the thin link.
	cases = append(cases, instance{"k5-thin-link", func() (*Network, *Demands) {
		n := NewNetwork()
		for i := 0; i < 5; i++ {
			n.AddNode(fmt.Sprintf("k%d", i))
		}
		for a := 0; a < 5; a++ {
			for b := a + 1; b < 5; b++ {
				capacity := 10.0
				if a == 0 && b == 1 {
					capacity = 1
				}
				if _, _, err := n.AddDuplex(a, b, capacity); err != nil {
					t.Fatal(err)
				}
			}
		}
		d := NewDemands(n)
		if err := d.Add(0, 1, 0.9); err != nil {
			t.Fatal(err)
		}
		return n, d
	}, "unit"})

	var ownOutage, partnerOutage, finitePartner, solo int
	for ci, c := range cases {
		n, d := c.net()
		opts := CriticalLinksOptions{Failures: "dual"}
		var w []float64
		switch c.weights {
		case "random", "unit":
			rng := rand.New(rand.NewSource(int64(ci)))
			w = make([]float64, n.NumLinks())
			for e := range w {
				w[e] = 1
				if c.weights == "random" {
					w[e] += float64(rng.Intn(20))
				}
			}
			opts.Weights = w
		case "ospf-ls":
			opts.Router = OSPFLocalSearch(LocalSearchOptions{MaxEvals: 200, Seed: 3})
			routes, err := opts.Router.Routes(t.Context(), n, d)
			if err != nil {
				t.Fatal(err)
			}
			w = routes.ecmpWeights
		}
		want := rankDualFromIntact(t, n, d, w)
		for _, r := range want {
			switch {
			case !r.Routable && r.WorstWith == "":
				ownOutage++
			case !r.Routable:
				partnerOutage++
			case r.WorstWith != "":
				finitePartner++
			default:
				solo++
			}
		}
		for _, workers := range []int{1, 2, 5} {
			opts.Workers = workers
			got, err := RankCriticalLinks(t.Context(), n, d, opts)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", c.name, workers, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s workers=%d: %d rows, oracle %d", c.name, workers, len(got), len(want))
			}
			for i := range got {
				if !sameCriticalLink(got[i], want[i]) {
					t.Errorf("%s workers=%d row %d:\n got %+v\nwant %+v", c.name, workers, i, got[i], want[i])
				}
			}
		}
	}
	t.Logf("%d instances: %d own outages, %d partner outages, %d finite worst partners, %d solo worst cases",
		len(cases), ownOutage, partnerOutage, finitePartner, solo)
	if ownOutage == 0 || partnerOutage == 0 || finitePartner == 0 || solo == 0 {
		t.Error("the battery misses a way a dual row can end")
	}
}

// sameCriticalLink compares two rows bit for bit, runtimes aside.
func sameCriticalLink(a, b CriticalLink) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Rank == b.Rank && a.Link == b.Link && a.Routable == b.Routable && a.WorstWith == b.WorstWith &&
		same(a.BaseMLU, b.BaseMLU) && same(a.MLU, b.MLU) && same(a.Regret, b.Regret)
}
