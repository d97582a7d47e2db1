package spef

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the multi-failure layer of the Grid: registry resolution
// of `failures=single|dual|srlg:file=...` specs, the one deterministic
// enumeration of each mode's failure units on a topology, and their
// expansion into failure variants, with routability pre-screening on
// the intact graph with the failed links masked (no routing scheme can
// be compared on a variant that strands a positive demand).

// Failure-set modes.
const (
	failureModeSingle = "single"
	failureModeDual   = "dual"
	failureModeSRLG   = "srlg"
)

// FailureSet is a resolved failure-set spec: the recipe Grid expansion
// turns into concrete failure variants per topology. Build one with
// ResolveFailureSet.
type FailureSet struct {
	mode   string
	file   string // srlg: the group file, for error messages
	groups []srlgGroup
}

// Mode returns the failure-set mode ("single", "dual" or "srlg").
func (f *FailureSet) Mode() string { return f.mode }

// srlgGroup is one shared-risk link group: a named set of duplex links
// (by endpoint node names) that fail together.
type srlgGroup struct {
	name  string
	links [][2]string
}

// failureSpecs are the failure-set modes.
var failureSpecs = []specEntry[struct{}, *FailureSet]{
	{
		name:    failureModeSingle,
		summary: "One failure variant per duplex pair — the classic single-link-failure axis.",
		build:   failureMode,
	},
	{
		name:    failureModeDual,
		summary: "Every single-link variant plus one variant per unordered pair of duplex-pair failures.",
		build:   failureMode,
	},
	{
		name:    failureModeSRLG,
		summary: "Shared-risk link groups: one variant per named group from a JSON file, all of its links failing together.",
		params: []ParamDoc{
			{Name: "file", Default: "required", Doc: `JSON group file: {"groups":[{"name":...,"links":[["A","B"],...]}]}`},
		},
		build: func(a *specArgs, _ struct{}) (*FailureSet, error) {
			path := a.word("file")
			if path == "" {
				return nil, fmt.Errorf("%w: spec %q needs file=PATH (a JSON SRLG group file)", ErrBadInput, a.spec)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, fmt.Errorf("%w: spec %q: %v", ErrBadInput, a.spec, err)
			}
			groups, err := parseSRLGGroups(data)
			if err != nil {
				return nil, fmt.Errorf("%w: spec %q: %v", ErrBadInput, a.spec, err)
			}
			return &FailureSet{mode: failureModeSRLG, file: path, groups: groups}, nil
		},
	},
}

// failureMode builds a mode that takes no parameters.
func failureMode(a *specArgs, _ struct{}) (*FailureSet, error) {
	return &FailureSet{mode: a.name}, nil
}

// ResolveFailureSet resolves a failure-set spec string:
//
//   - "single" — one variant per failed duplex pair.
//   - "dual" — every single variant plus one variant per unordered
//     pair of duplex-pair failures, named "A-B+C-D".
//   - "srlg:file=PATH" — shared-risk link groups: one variant per
//     group, failing all of its links at once. PATH is JSON:
//     {"groups":[{"name":"conduit-7","links":[["A","B"],["B","C"]]}]}
//     with links named by their endpoint node names (either order).
//
// The empty spec resolves to (nil, nil): no failure axis. Unknown modes
// and parameters fail with the known inventory and a did-you-mean hint,
// matching the router and demand registries.
func ResolveFailureSet(spec string) (*FailureSet, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	e, a, err := lookup(failureSpecs, spec)
	switch {
	case err != nil:
		return nil, err
	case e == nil:
		return nil, fmt.Errorf("%w: unknown failure set %q%s (known: %s)",
			ErrBadInput, spec, suggest(a.name, names(failureSpecs)), inventory(failureSpecs))
	}
	return e.resolve(a, struct{}{})
}

// parseSRLGGroups parses and validates the SRLG file format: at least
// one group, unique non-empty names, at least one link per group.
func parseSRLGGroups(data []byte) ([]srlgGroup, error) {
	var file struct {
		Groups []struct {
			Name  string      `json:"name"`
			Links [][2]string `json:"links"`
		} `json:"groups"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&file); err != nil {
		return nil, fmt.Errorf("parsing SRLG groups: %v", err)
	}
	if len(file.Groups) == 0 {
		return nil, fmt.Errorf(`no SRLG groups (want {"groups":[{"name":...,"links":[["A","B"],...]}]})`)
	}
	seen := make(map[string]bool, len(file.Groups))
	out := make([]srlgGroup, 0, len(file.Groups))
	for i, g := range file.Groups {
		if g.Name == "" {
			return nil, fmt.Errorf("SRLG group %d has no name", i)
		}
		if seen[g.Name] {
			return nil, fmt.Errorf("duplicate SRLG group %q", g.Name)
		}
		seen[g.Name] = true
		if len(g.Links) == 0 {
			return nil, fmt.Errorf("SRLG group %q has no links", g.Name)
		}
		out = append(out, srlgGroup{name: g.Name, links: g.Links})
	}
	return out, nil
}

// groupLinks resolves one SRLG group's node-name link list into the
// topology's link IDs, deduplicated, in file order.
func (f *FailureSet) groupLinks(n *Network, grp srlgGroup) ([]int, error) {
	type ends struct{ a, b int }
	pairs := make(map[ends][2]int)
	for _, p := range n.DuplexPairs() {
		from, to, _ := n.Link(p[0])
		pairs[ends{from, to}] = p
		pairs[ends{to, from}] = p
	}
	drop := make([]int, 0, 2*len(grp.links))
	seen := make(map[int]bool, 2*len(grp.links))
	for _, lk := range grp.links {
		a, ok := n.NodeByName(lk[0])
		if !ok {
			return nil, fmt.Errorf("%w: SRLG group %q (%s): unknown node %q", ErrBadInput, grp.name, f.file, lk[0])
		}
		b, ok := n.NodeByName(lk[1])
		if !ok {
			return nil, fmt.Errorf("%w: SRLG group %q (%s): unknown node %q", ErrBadInput, grp.name, f.file, lk[1])
		}
		p, ok := pairs[ends{a, b}]
		if !ok {
			return nil, fmt.Errorf("%w: SRLG group %q (%s): no duplex link %s-%s", ErrBadInput, grp.name, f.file, lk[0], lk[1])
		}
		for _, e := range p {
			if !seen[e] {
				seen[e] = true
				drop = append(drop, e)
			}
		}
	}
	return drop, nil
}

// singleFailures is the "single" failure set: the failure axis of the
// robust local search and of fail_mlu, and the units a dual ranking
// pairs up.
var singleFailures = &FailureSet{mode: failureModeSingle}

// failureUnit is one set of links that fail together.
type failureUnit struct {
	label string
	links []int // intact link IDs
}

// units enumerates the failure set's units on n: the duplex pairs in
// DuplexPairs order, then, for dual, every pair of them (i, j>i)
// labelled "A-B+C-D"; for srlg, the groups in file order instead. The
// grid, the critical-link ranking, fail_mlu and the robust search all
// read this one list, and the sharded sweep's bit-identity relies on
// its order.
func (f *FailureSet) units(n *Network) ([]failureUnit, error) {
	if f.mode == failureModeSRLG {
		out := make([]failureUnit, len(f.groups))
		for i, grp := range f.groups {
			links, err := f.groupLinks(n, grp)
			if err != nil {
				return nil, err
			}
			out[i] = failureUnit{label: grp.name, links: links}
		}
		return out, nil
	}
	pairs := n.DuplexPairs()
	count, size := len(pairs), 2*len(pairs)
	if f.mode == failureModeDual {
		dual := len(pairs) * (len(pairs) - 1) / 2
		count, size = count+dual, size+4*dual
	}
	// One backing array holds every unit's links, one allocation in
	// all; each unit's window is cap-limited, so appending to it copies
	// instead of overwriting the next unit's links.
	out := make([]failureUnit, 0, count)
	ids := make([]int, 0, size)
	for _, p := range pairs {
		ids = append(ids, p[0], p[1])
		out = append(out, failureUnit{label: pairLabel(n, p), links: ids[len(ids)-2 : len(ids) : len(ids)]})
	}
	if f.mode == failureModeDual {
		for i, a := range pairs {
			for j := i + 1; j < len(pairs); j++ {
				b := pairs[j]
				ids = append(ids, a[0], a[1], b[0], b[1])
				out = append(out, failureUnit{
					label: out[i].label + "+" + out[j].label,
					links: ids[len(ids)-4 : len(ids) : len(ids)],
				})
			}
		}
	}
	return out, nil
}

// pairLabel names one duplex pair by its endpoint nodes ("A-B").
func pairLabel(n *Network, pair [2]int) string {
	from, to, _ := n.Link(pair[0])
	return n.nodeLabel(from) + "-" + n.nodeLabel(to)
}

// routableUnits is the failure set's units on n, in order, less those
// whose failure strands a positive demand of d: no routing scheme can be
// compared on them, so grids never carry dead cells and the robust
// search never scores them. One screen serves every unit: on n's intact
// graph with the unit's links masked, each destination's reachers
// (graph.Reachers) must include every source that sends to it. The mask
// and the search buffers are reused from unit to unit, and no graph is
// copied.
func (f *FailureSet) routableUnits(n *Network, d *Demands) ([]failureUnit, error) {
	units, err := f.units(n)
	if err != nil {
		return nil, err
	}
	down := make([]bool, n.NumLinks())
	reached := make([]bool, n.NumNodes())
	queue := make([]int, 0, n.NumNodes())
	kept := units[:0]
	for _, u := range units {
		for _, e := range u.links {
			down[e] = true
		}
		ok := true
		for t := 0; t < len(reached) && ok; t++ {
			if d.m.IsDestination(t) {
				queue = n.g.Reachers(t, down, reached, queue)
				for s := 0; s < len(reached) && ok; s++ {
					ok = reached[s] || d.At(s, t) <= 0
				}
			}
		}
		for _, e := range u.links {
			down[e] = false
		}
		if ok {
			kept = append(kept, u)
		}
	}
	return kept, nil
}

// variants expands the failure set into n's failure variants: one per
// routable unit, each on its own copy of n without the unit's links.
func (f *FailureSet) variants(n *Network, d *Demands) ([]failureVariant, error) {
	units, err := f.routableUnits(n, d)
	if err != nil {
		return nil, err
	}
	out := make([]failureVariant, 0, len(units))
	for _, u := range units {
		n2, _, err := n.WithoutLinks(u.links...)
		if err != nil {
			return nil, err
		}
		out = append(out, failureVariant{net: n2, failedLink: u.label})
	}
	return out, nil
}
