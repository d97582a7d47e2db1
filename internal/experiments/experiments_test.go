package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRunTable1(t *testing.T) {
	r := quickRun[*Table1Result](t, "table1")
	if len(r.Schemes) != 5 {
		t.Fatalf("schemes = %v, want 5", r.Schemes)
	}
	// Structural checks against the paper's Table I.
	u1 := r.Utilization["beta=1"]
	want := []float64{2.0 / 3.0, 0.9, 1.0 / 3.0, 1.0 / 3.0}
	for e := range want {
		if math.Abs(u1[e]-want[e]) > 0.08 {
			t.Errorf("beta=1 u[%d] = %v, want %v", e, u1[e], want[e])
		}
	}
	mm := r.Utilization["min-max"]
	wantMM := []float64{0.5, 0.9, 0.5, 0.5}
	for e := range wantMM {
		if math.Abs(mm[e]-wantMM[e]) > 1e-6 {
			t.Errorf("min-max u[%d] = %v, want %v", e, mm[e], wantMM[e])
		}
	}
	// The FT optimum matches beta=1 utilizations on this instance (paper:
	// identical columns).
	ft := r.Utilization["Fortz-Thorup"]
	for e := range want {
		if math.Abs(ft[e]-want[e]) > 0.05 {
			t.Errorf("FT u[%d] = %v, want %v", e, ft[e], want[e])
		}
	}
	var sb strings.Builder
	r.Format(&sb)
	if !strings.Contains(sb.String(), "(1,3)") || !strings.Contains(sb.String(), "min-max") {
		t.Errorf("Format output missing expected content:\n%s", sb.String())
	}
}

func TestRunFig2(t *testing.T) {
	r := quickRun[*Fig2Result](t, "fig2")
	if len(r.Curves) != 4 {
		t.Fatalf("curves = %d, want 4", len(r.Curves))
	}
	// All curves start at 0 cost and increase.
	for _, c := range r.Curves {
		if c.Y[0] != 0 {
			t.Errorf("%s: cost at 0 load = %v, want 0", c.Name, c.Y[0])
		}
		for i := 1; i < len(c.Y); i++ {
			if c.Y[i] < c.Y[i-1]-1e-12 {
				t.Errorf("%s: cost decreasing at %d", c.Name, i)
				break
			}
		}
	}
	// The barrier curves dominate FT near capacity (Fig. 2's shape).
	last := len(r.Curves[0].Y) - 1
	ft, b2 := r.Curves[0].Y[last], r.Curves[3].Y[last]
	if b2 <= ft {
		t.Errorf("beta=2 cost %v not above FT %v near capacity", b2, ft)
	}
}

func TestRunFig3(t *testing.T) {
	r := quickRun[*Fig3Result](t, "fig3")
	// Weight of arc (3,4) grows like 10^beta (paper Fig. 3a).
	w34 := r.WeightSeries[1]
	if w34.Y[len(w34.Y)-1] < 1e4 {
		t.Errorf("arc(3,4) weight at beta=5 = %v, want ~1e5", w34.Y[len(w34.Y)-1])
	}
	// Utilization of arc (1,3) decreases in beta toward 0.5 (Fig. 3b).
	u13 := r.UtilSeries[0]
	first, last := u13.Y[0], u13.Y[len(u13.Y)-1]
	if !(first > last) {
		t.Errorf("arc(1,3) utilization not decreasing: %v -> %v", first, last)
	}
	if math.Abs(last-0.5) > 0.1 {
		t.Errorf("arc(1,3) utilization at beta=5 = %v, want ~0.5", last)
	}
}

func TestRunFig67(t *testing.T) {
	r := quickRun[*Fig67Result](t, "fig6")
	if len(r.Links) != 13 {
		t.Fatalf("links = %d, want 13", len(r.Links))
	}
	// OSPF overloads at least one link (Fig. 6 shows OSPF near 2.0);
	// every SPEF variant keeps MLU <= 1 + tolerance.
	maxOSPF := 0.0
	for _, u := range r.Util["OSPF"] {
		if u > maxOSPF {
			maxOSPF = u
		}
	}
	if maxOSPF <= 1 {
		t.Errorf("OSPF MLU = %v, want > 1 on the simple network", maxOSPF)
	}
	for _, scheme := range []string{"SPEF0", "SPEF1", "SPEF5"} {
		for e, u := range r.Util[scheme] {
			if u > 1.05 {
				t.Errorf("%s link %d utilization = %v, want <= ~1", scheme, e+1, u)
			}
		}
	}
	var sb strings.Builder
	r.Format(&sb)
	if !strings.Contains(sb.String(), "Fig 7b") {
		t.Error("Format output missing second-weight section")
	}
}

func TestRunTable3(t *testing.T) {
	r := quickRun[*Table3Result](t, "table3")
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(r.Rows))
	}
	if r.Rows[0].ID != "Abilene" || r.Rows[0].Nodes != 11 || r.Rows[0].Links != 28 {
		t.Errorf("Abilene row = %+v", r.Rows[0])
	}
}

func TestRunFig9(t *testing.T) {
	r := quickRun[*Fig9Result](t, "fig9")
	for _, id := range []string{"Abilene", "Cernet2"} {
		panel := r.Panels[id]
		if len(panel) != 2 {
			t.Fatalf("%s: %d series, want 2", id, len(panel))
		}
		ospf, spef := panel[0], panel[1]
		// Sorted decreasing.
		for i := 1; i < len(spef.Y); i++ {
			if spef.Y[i] > spef.Y[i-1]+1e-9 {
				t.Errorf("%s SPEF utilizations not sorted at %d", id, i)
				break
			}
		}
		// SPEF's peak utilization is no worse than OSPF's (the paper's
		// claim: over-utilized OSPF links are relieved).
		if spef.Y[0] > ospf.Y[0]+1e-6 {
			t.Errorf("%s: SPEF MLU %v > OSPF MLU %v", id, spef.Y[0], ospf.Y[0])
		}
	}
}

func TestRunFig10(t *testing.T) {
	r := quickRun[*Fig10Result](t, "fig10")
	for _, id := range r.Order {
		panel := r.Panels[id]
		ospf, spef := panel[0], panel[1]
		for i := range spef.Y {
			if math.IsInf(spef.Y[i], -1) {
				t.Errorf("%s: SPEF utility -inf at load %v", id, spef.X[i])
				continue
			}
			if !math.IsInf(ospf.Y[i], -1) && spef.Y[i] < ospf.Y[i]-0.2 {
				t.Errorf("%s load %v: SPEF utility %v below OSPF %v",
					id, spef.X[i], spef.Y[i], ospf.Y[i])
			}
		}
	}
}

func TestRunTable5(t *testing.T) {
	r := quickRun[*Table5Result](t, "table5")
	if len(r.Rows) < 2 {
		t.Fatalf("rows = %d, want >= 2", len(r.Rows))
	}
	total := 20 * 19
	for _, row := range r.Rows {
		sum := row.N[0] + row.N[1] + row.N[2] + row.N[3]
		if sum != total {
			t.Errorf("%s row sums to %d pairs, want %d", row.Routing, sum, total)
		}
	}
	// SPEF uses at least as many multi-path pairs as OSPF (Table V).
	ospfMulti := total - r.Rows[0].N[0]
	spefMulti := total - r.Rows[1].N[0]
	if spefMulti < ospfMulti {
		t.Errorf("SPEF multipath pairs %d < OSPF %d", spefMulti, ospfMulti)
	}
}

func TestRunFig12(t *testing.T) {
	r := quickRun[*Fig12Result](t, "fig12")
	if len(r.TE) != 4 || len(r.NEM) != 4 {
		t.Fatalf("series = %d/%d, want 4/4", len(r.TE), len(r.NEM))
	}
	for _, s := range r.TE {
		if len(s.Y) == 0 {
			t.Errorf("TE %s: empty trace", s.Name)
		}
	}
	// The default-ratio TE dual decreases overall (convergence).
	def := r.TE[1] // ratio=1
	if def.Y[len(def.Y)-1] >= def.Y[0] {
		t.Errorf("TE dual did not decrease: %v -> %v", def.Y[0], def.Y[len(def.Y)-1])
	}
}

func TestRunFig13(t *testing.T) {
	r := quickRun[*Fig13Result](t, "fig13")
	for _, id := range []string{"Abilene", "Cernet2"} {
		panel := r.Panels[id]
		if len(panel) != 2 {
			t.Fatalf("%s: %d series, want 2", id, len(panel))
		}
		real, integer := panel[0], panel[1]
		for i := range real.Y {
			if math.IsInf(real.Y[i], -1) {
				t.Errorf("%s: noninteger utility -inf at load %v", id, real.X[i])
			}
			// At low loads the integer curve tracks the real one (Fig. 13:
			// "little impact on utility for the low network loading").
			if i == 0 && !math.IsInf(integer.Y[i], -1) && math.Abs(integer.Y[i]-real.Y[i]) > 0.25*math.Abs(real.Y[i])+0.5 {
				t.Errorf("%s: integer utility %v far from real %v at lowest load", id, integer.Y[i], real.Y[i])
			}
		}
	}
}

func TestRunFig11(t *testing.T) {
	r := quickRun[*Fig11Result](t, "fig11")
	if len(r.Panels) != 2 {
		t.Fatalf("panels = %d, want 2", len(r.Panels))
	}
	for _, p := range r.Panels {
		if p.SPEFLinksUsed == 0 || p.PEFTLinksUsed == 0 {
			t.Errorf("%s: zero links used (SPEF %d, PEFT %d)", p.Name, p.SPEFLinksUsed, p.PEFTLinksUsed)
		}
		var spefTotal, peftTotal float64
		for i := range p.SPEF {
			spefTotal += p.SPEF[i]
			peftTotal += p.PEFT[i]
		}
		if spefTotal == 0 || peftTotal == 0 {
			t.Errorf("%s: zero total load (SPEF %v, PEFT %v)", p.Name, spefTotal, peftTotal)
		}
	}
	var sb strings.Builder
	r.Format(&sb)
	if !strings.Contains(sb.String(), "links carrying traffic") {
		t.Error("Format output missing link-usage summary")
	}
}
