package spef

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// critlinksNorm zeroes the runtime_ms field — the only nondeterministic
// byte of the JSONL — exactly as the CI smoke job's sed does.
var critlinksNorm = regexp.MustCompile(`"runtime_ms":[0-9.e+-]+`)

func normalizeCritlinks(data []byte) string {
	return critlinksNorm.ReplaceAllString(string(data), `"runtime_ms":0`)
}

const critlinksGoldenPath = "testdata/critlinks.golden.jsonl"

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
	n, d := critlinksFixture(t)
	rows, err := RankCriticalLinks(t.Context(), n, d, CriticalLinksOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCriticalLinksJSONL(&buf, rows); err != nil {
		t.Fatal(err)
	}
	got := normalizeCritlinks(buf.Bytes())
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(critlinksGoldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", critlinksGoldenPath, len(got))
		return
	}
	want, err := os.ReadFile(critlinksGoldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test -run TestCriticalLinksGolden)", err)
	}
	if got != string(want) {
		t.Fatalf("critlinks output drifted from %s.\n got: %s\nwant: %s\nRegenerate with UPDATE_GOLDEN=1 if intentional.",
			critlinksGoldenPath, got, want)
	}
	// The golden must stay a well-formed ranking: ranks 1..n, regret
	// non-increasing, every base_mlu identical.
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
