package experiments

import (
	"context"
	"fmt"
	"io"
	"text/tabwriter"

	spef "repro"
	"repro/internal/topo"
	"repro/internal/traffic"
)

// Fig11Result reproduces paper Fig. 11: mean per-link traffic load under
// SPEF versus PEFT measured by packet-level simulation (our netsim
// substitutes for SSFnet) on the simple network and on Cernet2, with the
// Table IV demands.
type Fig11Result struct {
	Panels []Fig11Panel
}

// Fig11Panel is one subfigure.
type Fig11Panel struct {
	Name string
	// Unit labels the load numbers ("kbps" for the simple network,
	// "Mbps" for Cernet2, as in the paper's y-axes).
	Unit string
	// Links are 1-based link indices.
	Links []int
	// SPEF and PEFT are mean link loads in Unit.
	SPEF []float64
	PEFT []float64
	// SPEFLinksUsed / PEFTLinksUsed count links carrying traffic — the
	// paper's headline observation (12 vs 8 on the simple network).
	SPEFLinksUsed int
	PEFTLinksUsed int
}

// fig11Case describes one simulation scenario.
type fig11Case struct {
	name         string
	net          *spef.Network
	demands      []traffic.Demand
	capacityUnit float64 // bits/s per capacity unit
	unitName     string
	unitScale    float64 // multiply measured bits/s to get display unit
}

// RunFig11 regenerates Fig. 11. Both protocols forward with the same
// optimized first link weights; they differ in path sets (equal-cost DAG
// vs all downward links) and split ratios (second weights vs exponential
// extra-length penalty).
func RunFig11(ctx context.Context, opts Options) (*Fig11Result, error) {
	simple, _, err := spef.SimpleExample()
	if err != nil {
		return nil, err
	}
	cases := []fig11Case{
		{
			name:         "simple network (Fig. 4), 5 Mb/s links",
			net:          simple,
			demands:      topo.SimpleTableIVDemands(),
			capacityUnit: 1e6, // capacity 5 -> 5 Mb/s
			unitName:     "kbps",
			unitScale:    1e-3,
		},
		{
			name:    "Cernet2 backbone, Table IV demands",
			net:     spef.Cernet2(),
			demands: topo.Cernet2TableIVDemands(),
			// 1 Gbps of real capacity is simulated at 1e6 bit/s; loads
			// scale linearly, so measured bit/s * 1e-6 = real Gbps and
			// * 1e-3 = real Mbps (the paper's Fig. 11b unit).
			capacityUnit: 1e6,
			unitName:     "Mbps",
			unitScale:    1e-3,
		},
	}

	duration := 400.0
	if opts.Quick {
		duration = 40
	}
	res := &Fig11Result{}
	for _, c := range cases {
		d := spef.NewDemands(c.net)
		for _, dem := range c.demands {
			if err := d.Add(dem.Src, dem.Dst, dem.Volume); err != nil {
				return nil, err
			}
		}
		p, err := optimizeSPEF(ctx, c.net, d, 1, opts)
		if err != nil {
			return nil, fmt.Errorf("fig11 %s: %w", c.name, err)
		}
		peft, err := spef.PEFT(p.FirstWeights()).Routes(ctx, c.net, d)
		if err != nil {
			return nil, err
		}
		panel := Fig11Panel{Name: c.name, Unit: c.unitName}
		for e := 0; e < c.net.NumLinks(); e++ {
			panel.Links = append(panel.Links, e+1)
		}
		runs := []struct {
			routes *spef.Routes
			out    *[]float64
			used   *int
			seed   int64
		}{
			{routes: p.Routes(), out: &panel.SPEF, used: &panel.SPEFLinksUsed, seed: 21},
			{routes: peft, out: &panel.PEFT, used: &panel.PEFTLinksUsed, seed: 22},
		}
		for _, r := range runs {
			sim, err := r.routes.Simulate(d, spef.SimulationConfig{
				CapacityBitsPerUnit: c.capacityUnit,
				DurationSeconds:     duration,
				Seed:                r.seed,
			})
			if err != nil {
				return nil, fmt.Errorf("fig11 %s: %w", c.name, err)
			}
			loads := make([]float64, c.net.NumLinks())
			used := 0
			for e := range loads {
				loads[e] = sim.LinkLoadBits[e] * c.unitScale
				if sim.LinkLoadBits[e] > 0.001*c.capacityUnit {
					used++
				}
			}
			*r.out = loads
			*r.used = used
		}
		res.Panels = append(res.Panels, panel)
	}
	return res, nil
}

// Format prints each panel's per-link loads and link-usage counts.
func (r *Fig11Result) Format(w io.Writer) {
	for _, p := range r.Panels {
		fmt.Fprintf(w, "# %s (loads in %s)\n", p.Name, p.Unit)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "link\tSPEF\tPEFT")
		for i, l := range p.Links {
			fmt.Fprintf(tw, "%d\t%.1f\t%.1f\n", l, p.SPEF[i], p.PEFT[i])
		}
		tw.Flush()
		fmt.Fprintf(w, "links carrying traffic: SPEF %d, PEFT %d\n", p.SPEFLinksUsed, p.PEFTLinksUsed)
	}
}
