package spef

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// This file is the multi-failure layer of the Grid: registry resolution
// of `failures=single|dual|srlg:file=...` specs and the deterministic
// expansion of each mode into per-topology failure variants, with
// routability pre-screening on the surviving graph (no routing scheme
// can be compared on a variant that strands a positive demand).

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

// variants expands the failure set into a topology's failure variants,
// pre-screened against d's positivity pattern. The order is
// deterministic: single variants in duplex-pair order, dual pairs in
// lexicographic (i, j>i) pair order after the singles, SRLG groups in
// file order — the property the sharded sweep's bit-identity relies on.
func (f *FailureSet) variants(n *Network, d *Demands) ([]failureVariant, error) {
	switch f.mode {
	case failureModeSingle:
		return failureVariants(n, d)
	case failureModeDual:
		return dualFailureVariants(n, d)
	case failureModeSRLG:
		return f.srlgVariants(n, d)
	}
	return nil, fmt.Errorf("%w: unknown failure mode %q", ErrBadInput, f.mode)
}

// pairLabel names one duplex pair by its endpoint nodes ("A-B").
func pairLabel(n *Network, pair [2]int) string {
	from, to, _ := n.Link(pair[0])
	return n.nodeLabel(from) + "-" + n.nodeLabel(to)
}

// dualFailureVariants generates every routable single-duplex-pair
// variant plus every routable unordered pair of duplex-pair failures.
func dualFailureVariants(n *Network, d *Demands) ([]failureVariant, error) {
	out, err := failureVariants(n, d)
	if err != nil {
		return nil, err
	}
	pairs := n.DuplexPairs()
	for i := 0; i < len(pairs); i++ {
		for j := i + 1; j < len(pairs); j++ {
			label := pairLabel(n, pairs[i]) + "+" + pairLabel(n, pairs[j])
			drop := []int{pairs[i][0], pairs[i][1], pairs[j][0], pairs[j][1]}
			v, ok, err := multiFailureVariant(n, d, label, drop)
			if err != nil {
				return nil, err
			}
			if ok {
				out = append(out, v)
			}
		}
	}
	return out, nil
}

// srlgVariants generates one variant per shared-risk link group,
// resolving each group's node-name link list against the topology
// (see FailureSet.groupLinks in critlinks.go).
func (f *FailureSet) srlgVariants(n *Network, d *Demands) ([]failureVariant, error) {
	var out []failureVariant
	for _, grp := range f.groups {
		drop, err := f.groupLinks(n, grp)
		if err != nil {
			return nil, err
		}
		v, ok, err := multiFailureVariant(n, d, grp.name, drop)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, v)
		}
	}
	return out, nil
}

// multiFailureVariant builds one degraded variant with the given links
// dropped, reporting ok=false when the failure strands a positive
// demand (such variants are skipped, matching the single-failure rule).
func multiFailureVariant(n *Network, d *Demands, label string, drop []int) (failureVariant, bool, error) {
	n2, keep, err := n.WithoutLinks(drop...)
	if err != nil {
		return failureVariant{}, false, err
	}
	routable, err := demandsRoutable(n2, d)
	if err != nil {
		return failureVariant{}, false, err
	}
	if !routable {
		return failureVariant{}, false, nil
	}
	return failureVariant{net: n2, failedLink: label, keep: keep}, true, nil
}
