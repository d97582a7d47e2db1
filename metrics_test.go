package spef

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"
)

// fig1Outcome evaluates a router on the Fig. 1 example and returns the
// pieces metrics consume.
func fig1Outcome(t *testing.T, r Router) (*Routes, *Demands, *TrafficReport) {
	t.Helper()
	n, d, err := Fig1Example()
	if err != nil {
		t.Fatal(err)
	}
	routes, err := r.Routes(context.Background(), n, d)
	if err != nil {
		t.Fatal(err)
	}
	report, err := routes.Evaluate(d)
	if err != nil {
		t.Fatal(err)
	}
	return routes, d, report
}

func computeMetric(t *testing.T, m Metric, routes *Routes, d *Demands, report *TrafficReport) float64 {
	t.Helper()
	v, err := m.Compute(routes, d, report)
	if err != nil {
		t.Fatalf("metric %s: %v", m.Name(), err)
	}
	return v
}

// TestBuiltinMetricsOnFig1 pins every built-in metric on the Fig. 1
// network under InvCap OSPF, where the outcome is known in closed form:
// all weights equal, so both demands ride their direct links and the
// utilization vector is [1, 0.9, 0, 0].
func TestBuiltinMetricsOnFig1(t *testing.T) {
	routes, d, report := fig1Outcome(t, OSPF(nil))
	const eps = 1e-9

	if v := computeMetric(t, MLUMetric(), routes, d, report); math.Abs(v-1) > eps {
		t.Errorf("mlu = %v, want 1", v)
	}
	// MLU = 1 saturates: utility -Inf, M/M/1 delay +Inf.
	if v := computeMetric(t, UtilityMetric(), routes, d, report); !math.IsInf(v, -1) {
		t.Errorf("utility = %v, want -Inf", v)
	}
	if v := computeMetric(t, MM1DelayMetric(), routes, d, report); !math.IsInf(v, 1) {
		t.Errorf("mm1_delay = %v, want +Inf", v)
	}
	if v := computeMetric(t, MeanUtilizationMetric(), routes, d, report); math.Abs(v-0.475) > eps {
		t.Errorf("mean_util = %v, want 0.475", v)
	}
	// Sorted utilizations [0, 0, 0.9, 1]: p95 hits the top rank, p50
	// the second (nearest-rank).
	if v := computeMetric(t, UtilizationPercentileMetric(95), routes, d, report); math.Abs(v-1) > eps {
		t.Errorf("p95_util = %v, want 1", v)
	}
	if v := computeMetric(t, UtilizationPercentileMetric(50), routes, d, report); math.Abs(v-0) > eps {
		t.Errorf("p50_util = %v, want 0", v)
	}
	// Both demands ride one-hop shortest paths: stretch exactly 1.
	if v := computeMetric(t, MaxStretchMetric(), routes, d, report); math.Abs(v-1) > eps {
		t.Errorf("max_stretch = %v, want 1", v)
	}
}

// TestMaxStretchDetectsDetours checks the stretch metric sees SPEF's
// load-balancing detour on Fig. 1: at beta = 1 the (1,3) demand splits
// 2/3 direct, 1/3 over the two-hop path, so the destination's stretch
// is (2/3 + 2*1/3) / 1 = 4/3.
func TestMaxStretchDetectsDetours(t *testing.T) {
	routes, d, report := fig1Outcome(t, SPEF(WithMaxIterations(20000)))
	v := computeMetric(t, MaxStretchMetric(), routes, d, report)
	if math.Abs(v-4.0/3.0) > 0.02 {
		t.Errorf("max_stretch = %v, want ~4/3", v)
	}
}

// TestMetricsOnOptimalRoutes checks flow-backed routes (whose per-dest
// flows come from the solver, not DAG propagation) feed the same
// metric pipeline.
func TestMetricsOnOptimalRoutes(t *testing.T) {
	routes, d, report := fig1Outcome(t, Optimal())
	for _, m := range DefaultMetrics() {
		v, err := m.Compute(routes, d, report)
		if err != nil {
			t.Errorf("metric %s on optimal routes: %v", m.Name(), err)
		}
		if math.IsNaN(v) {
			t.Errorf("metric %s on optimal routes is NaN", m.Name())
		}
	}
}

func TestMetricsByName(t *testing.T) {
	names := []string{"mlu", "utility", "mean_util", "p95_util", "mm1_delay", "max_stretch", "p99_util", "p50_util"}
	ms, err := MetricsByName(names...)
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range ms {
		if m.Name() != names[i] {
			t.Errorf("metric %d resolved to %q, want %q", i, m.Name(), names[i])
		}
	}
	if _, err := MetricsByName("bogus"); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := MetricsByName("p0_util"); err == nil {
		t.Error("zero percentile accepted")
	}
	// Names fold case and spacing like every spec name.
	for name, want := range map[string]string{"MLU": "mlu", " P95_Util ": "p95_util", "Fail_MLU": "fail_mlu"} {
		if ms, err := MetricsByName(name); err != nil || ms[0].Name() != want {
			t.Errorf("MetricsByName(%q) = %v, want %s", name, err, want)
		}
	}
	// A percentile resolves only under its own name: no trailing junk,
	// spacing, sign, exponent or padding.
	for _, name := range []string{"p50x_util", "p 50_util", "p+50_util", "p1e2_util", "p050_util", "p50.0_util"} {
		if ms, err := MetricsByName(name); !errors.Is(err, ErrBadInput) {
			t.Errorf("MetricsByName(%q) = %v, %v; want ErrBadInput", name, ms, err)
		}
	}
	// An unknown name gets the did-you-mean hint and the inventory.
	_, err = MetricsByName("mlux")
	if !errors.Is(err, ErrBadInput) || !strings.Contains(err.Error(), `(did you mean "mlu"?)`) ||
		!strings.Contains(err.Error(), "(known: "+inventory(metricSpecs)+")") {
		t.Errorf("MetricsByName(mlux) err = %v, want ErrBadInput with a hint and the inventory", err)
	}
}

func TestDefaultMetricsCount(t *testing.T) {
	// The acceptance bar: every default-configured cell carries >= 5
	// metrics.
	if got := len(DefaultMetrics()); got < 5 {
		t.Fatalf("DefaultMetrics has %d metrics, want >= 5", got)
	}
}
