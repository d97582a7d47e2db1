package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRunControl(t *testing.T) {
	r := quickRun[*ControlResult](t, "control")
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (Table III networks)", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Messages <= 0 {
			t.Errorf("%s: messages = %d", row.ID, row.Messages)
		}
		if row.SPEFWords <= row.OSPFWords {
			t.Errorf("%s: SPEF payload %d not above OSPF %d", row.ID, row.SPEFWords, row.OSPFWords)
		}
		// "One more weight" bounds the overhead by one word per 3-4 in
		// the per-link payload: strictly under 40%.
		if row.OverheadPct <= 0 || row.OverheadPct >= 40 {
			t.Errorf("%s: overhead = %.1f%%, want in (0, 40)", row.ID, row.OverheadPct)
		}
	}
	var sb strings.Builder
	r.Format(&sb)
	if !strings.Contains(sb.String(), "overhead") {
		t.Error("Format output missing overhead column")
	}
}

func TestRunFailure(t *testing.T) {
	r := quickRun[*FailureResult](t, "failure")
	if len(r.Rows) == 0 {
		t.Fatal("no failure rows")
	}
	for _, row := range r.Rows {
		if row.StaleMLU <= 0 {
			t.Errorf("%s: stale MLU = %v", row.FailedLink, row.StaleMLU)
		}
		// Re-optimization is at least as good as stale weights (up to
		// iteration noise).
		if !math.IsNaN(row.ReoptMLU) && row.ReoptMLU > row.StaleMLU+0.05 {
			t.Errorf("%s: reoptimized MLU %v worse than stale %v",
				row.FailedLink, row.ReoptMLU, row.StaleMLU)
		}
	}
	var sb strings.Builder
	r.Format(&sb)
	if !strings.Contains(sb.String(), "stale-SPEF") {
		t.Error("Format output missing stale column")
	}
}
