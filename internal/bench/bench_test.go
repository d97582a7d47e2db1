package bench

import (
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func kernelReport(speedup, allocs, ns float64) *Report {
	return &Report{
		Schema: Schema,
		Kernels: []Kernel{{
			Name:     "t/k",
			Base:     Measure{NsPerOp: ns * speedup},
			Fast:     Measure{NsPerOp: ns, AllocsPerOp: allocs},
			Speedup:  speedup,
			Portable: true,
		}},
		Parity: []Parity{{Name: "p", BitIdentical: true}},
	}
}

func TestCheckPassesWithinTolerance(t *testing.T) {
	base := kernelReport(4.0, 0, 1000)
	cur := kernelReport(3.5, 0, 1100)
	if err := Check(cur, base, 0.20, false); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCheckFailsOnSpeedupRegression(t *testing.T) {
	base := kernelReport(4.0, 0, 1000)
	cur := kernelReport(2.0, 0, 1000)
	err := Check(cur, base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "speedup") {
		t.Fatalf("Check = %v, want speedup regression", err)
	}
}

func TestCheckFailsOnAllocRegression(t *testing.T) {
	base := kernelReport(4.0, 0, 1000)
	cur := kernelReport(4.0, 3, 1000)
	err := Check(cur, base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("Check = %v, want alloc regression", err)
	}
}

func TestCheckExemptsNonPortableKernels(t *testing.T) {
	// Parallel fast paths scale with core count: a large apparent
	// regression on a non-portable kernel must not fail the gate.
	base := kernelReport(4.0, 0, 1000)
	base.Kernels[0].Portable = false
	cur := kernelReport(1.1, 64, 4000)
	cur.Kernels[0].Portable = false
	if err := Check(cur, base, 0.20, true); err != nil {
		t.Fatalf("Check gated a non-portable kernel: %v", err)
	}
}

func TestCheckFailsOnParityBreak(t *testing.T) {
	base := kernelReport(4.0, 0, 1000)
	cur := kernelReport(4.0, 0, 1000)
	cur.Parity[0].BitIdentical = false
	err := Check(cur, base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "bit-identical") {
		t.Fatalf("Check = %v, want parity failure", err)
	}
}

func TestCheckAbsoluteNsPerOp(t *testing.T) {
	base := kernelReport(4.0, 0, 1000)
	cur := kernelReport(4.0, 0, 1500)
	if err := Check(cur, base, 0.20, false); err != nil {
		t.Fatalf("relative Check: %v", err)
	}
	err := Check(cur, base, 0.20, true)
	if err == nil || !strings.Contains(err.Error(), "ns/op") {
		t.Fatalf("absolute Check = %v, want ns/op regression", err)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := kernelReport(4.0, 0, 1000)
	rep.GoVersion, rep.GOOS, rep.GOARCH = "go", "os", "arch"
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Kernels) != 1 || got.Kernels[0].Speedup != 4.0 || got.Kernels[0].Name != "t/k" {
		t.Fatalf("round trip mangled kernels: %+v", got.Kernels)
	}
	if err := Check(got, rep, 0.2, true); err != nil {
		t.Fatalf("round-tripped report fails self-check: %v", err)
	}
}

func serveReport(events int, allocs float64, p99 int64) *Report {
	r := kernelReport(4.0, 0, 1000)
	r.Serve = []ServeLatency{{Name: "abilene/set-weight", Events: events, AllocsPerOp: allocs, P99Ns: p99}}
	return r
}

func TestCheckServeLatencyGates(t *testing.T) {
	base := serveReport(512, 0.1, 10_000)

	if err := Check(serveReport(96, 0.1, 10_000), base, 0.20, false); err != nil {
		t.Fatalf("matching serve entry failed the gate: %v", err)
	}

	missing := kernelReport(4.0, 0, 1000)
	err := Check(missing, base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "not measured") {
		t.Fatalf("Check = %v, want missing-entry failure", err)
	}

	err = Check(serveReport(0, 0.1, 10_000), base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "no events") {
		t.Fatalf("Check = %v, want no-events failure", err)
	}

	err = Check(serveReport(512, 3, 10_000), base, 0.20, false)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("Check = %v, want serve alloc regression", err)
	}

	// p99 is machine-dependent: gated only under -abs.
	slow := serveReport(512, 0.1, 50_000)
	if err := Check(slow, base, 0.20, false); err != nil {
		t.Fatalf("relative Check gated serve p99: %v", err)
	}
	err = Check(slow, base, 0.20, true)
	if err == nil || !strings.Contains(err.Error(), "p99") {
		t.Fatalf("absolute Check = %v, want serve p99 regression", err)
	}
}

// TestTimePairAlternatesRounds: timePair warms each path up once, then
// times pairRounds rounds of the base path each followed by one of the
// fast path, and each Measure counts every timed call.
func TestTimePairAlternatesRounds(t *testing.T) {
	var last byte
	var switches, baseCalls, fastCalls int
	path := func(side byte, calls *int) func() {
		return func() {
			if side != last {
				switches++
				last = side
			}
			*calls++
		}
	}
	b, f, speedup := timePair(7*time.Millisecond, path('b', &baseCalls), path('f', &fastCalls))
	if switches != 2+2*pairRounds {
		t.Errorf("the paths took turns %d times, want %d", switches, 2+2*pairRounds)
	}
	if b.N+1 != baseCalls || f.N+1 != fastCalls {
		t.Errorf("measures count %d and %d calls, the paths ran %d and %d (one warm-up each)", b.N, f.N, baseCalls, fastCalls)
	}
	if !(speedup > 0) || b.NsPerOp <= 0 || f.NsPerOp <= 0 {
		t.Errorf("speed-up %v from %+v and %+v", speedup, b, f)
	}
}

// TestHarnessQuickSmoke runs the real harness end to end in quick mode
// when -short is not set, proving the measurement plumbing works and
// every parity check holds.
func TestHarnessQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("harness smoke takes ~15s")
	}
	rep, err := Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Kernels) == 0 {
		t.Fatal("no kernels measured")
	}
	for _, p := range rep.Parity {
		if !p.BitIdentical {
			t.Errorf("parity %s failed: %s", p.Name, p.Detail)
		}
	}
	for _, k := range rep.Kernels {
		if k.Fast.NsPerOp <= 0 || k.Base.NsPerOp <= 0 {
			t.Errorf("%s: empty measurement %+v", k.Name, k)
		}
	}
}
