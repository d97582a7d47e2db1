package spef

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// This file renders the registry's self-description. Every spec is one
// entry of its table (topologySpecs, demandSpecs and sequenceSpecs in
// registry.go, routerSpecs in suite.go, failureSpecs in failures.go,
// metricSpecs in metrics.go): its name, summary, parameters with their
// defaults, and builder. The same entry is the SpecDoc that `spef
// catalog`, the generated README catalog section and the unknown-spec
// errors show, and the declaration the spec parser enforces: it rejects
// keys the entry does not document and reads omitted numeric parameters
// as their documented defaults. Adding a spec means adding its entry;
// the catalog sync check in CI keeps the committed README honest.

// ParamDoc documents one spec parameter.
type ParamDoc struct {
	// Name is the parameter key ("seed").
	Name string
	// Default renders the value used when the parameter is omitted
	// ("1", "required"). A numeric default is what the spec parser
	// reads; a word default describes what the zero value selects.
	Default string
	// Doc is the one-line description.
	Doc string
}

// SpecDoc documents one registry spec: its name, what it resolves to,
// and its parameters.
type SpecDoc struct {
	// Name is the spec name before the colon ("waxman").
	Name string
	// Summary is the one-line description.
	Summary string
	// Params documents the accepted parameters, empty for none.
	Params []ParamDoc
}

// Spec renders the spec's canonical form ("waxman:n=...,alpha=...").
func (s SpecDoc) Spec() string {
	if len(s.Params) == 0 {
		return s.Name
	}
	parts := make([]string, len(s.Params))
	for i, p := range s.Params {
		parts[i] = p.Name + "=..."
	}
	return s.Name + ":" + strings.Join(parts, ",")
}

// Catalog is the full registry inventory: every named topology, every
// parameterized generator and importer, every demand generator and
// temporal sequence, every router, every metric. It is what `spef
// catalog` renders and what suite authors consult for valid specs.
type Catalog struct {
	// Topologies lists the registered named topologies.
	Topologies []TopologyInfo
	// Generators documents the parameterized topology generators and
	// file importers.
	Generators []SpecDoc
	// Demands documents the demand-generator specs.
	Demands []SpecDoc
	// Sequences documents the temporal demand-sequence specs.
	Sequences []SpecDoc
	// Routers documents the router specs.
	Routers []SpecDoc
	// Failures documents the failure-set specs.
	Failures []SpecDoc
	// Metrics documents the metric names.
	Metrics []SpecDoc
}

// NewCatalog assembles the registry's current inventory.
func NewCatalog() (*Catalog, error) {
	topos, err := RegisteredTopologies()
	if err != nil {
		return nil, err
	}
	return &Catalog{
		Topologies: topos,
		Generators: docsOf(topologySpecs),
		Demands:    docsOf(demandSpecs),
		Sequences:  docsOf(sequenceSpecs),
		Routers:    docsOf(routerSpecs),
		Failures:   docsOf(failureSpecs),
		Metrics:    docsOf(metricSpecs),
	}, nil
}

// WriteText renders the catalog as aligned text tables for terminals.
func (c *Catalog) WriteText(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAMED TOPOLOGIES\tclass\tnodes\tlinks")
	for _, t := range c.Topologies {
		fmt.Fprintf(tw, "  %s\t%s\t%d\t%d\n", t.Name, t.Class, t.Nodes, t.Links)
	}
	sections := []struct {
		title string
		docs  []SpecDoc
	}{
		{"TOPOLOGY GENERATORS & IMPORTERS", c.Generators},
		{"DEMAND GENERATORS", c.Demands},
		{"DEMAND SEQUENCES (temporal)", c.Sequences},
		{"ROUTERS", c.Routers},
		{"FAILURE SETS", c.Failures},
		{"METRICS", c.Metrics},
	}
	for _, sec := range sections {
		fmt.Fprintf(tw, "\n%s\t\t\t\n", sec.title)
		for _, d := range sec.docs {
			fmt.Fprintf(tw, "  %s\t%s\t\t\n", d.Spec(), d.Summary)
			for _, p := range d.Params {
				fmt.Fprintf(tw, "    %s\t(default %s) %s\t\t\n", p.Name, p.Default, p.Doc)
			}
		}
	}
	return tw.Flush()
}

// WriteMarkdown renders the catalog as the Markdown fragment embedded
// in README.md between the spef-catalog markers; CI regenerates it and
// fails when the committed section drifts.
func (c *Catalog) WriteMarkdown(w io.Writer) error {
	bw := &errWriter{w: w}
	bw.printf("### Named topologies\n\n")
	bw.printf("| spec | class | nodes | links |\n|---|---|---:|---:|\n")
	for _, t := range c.Topologies {
		bw.printf("| `%s` | %s | %d | %d |\n", t.Name, t.Class, t.Nodes, t.Links)
	}
	sections := []struct {
		title string
		docs  []SpecDoc
	}{
		{"Topology generators & importers", c.Generators},
		{"Demand generators", c.Demands},
		{"Demand sequences (temporal)", c.Sequences},
		{"Routers", c.Routers},
		{"Failure sets", c.Failures},
		{"Metrics", c.Metrics},
	}
	for _, sec := range sections {
		bw.printf("\n### %s\n", sec.title)
		for _, d := range sec.docs {
			bw.printf("\n- `%s` — %s\n", d.Spec(), d.Summary)
			for _, p := range d.Params {
				bw.printf("  - `%s` (default %s): %s\n", p.Name, p.Default, p.Doc)
			}
		}
	}
	return bw.err
}

// errWriter latches the first write error, so the render loop needs no
// per-line error plumbing.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) printf(format string, args ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, args...)
	}
}

// specNames lists the doc'd spec names for error messages, appending
// ":..." to parameterized specs.
func specNames(docs []SpecDoc) []string {
	out := make([]string, len(docs))
	for i, d := range docs {
		out[i] = d.Name
		if len(d.Params) > 0 {
			out[i] += ":..."
		}
	}
	return out
}

// suggest returns a "did you mean" hint when the unknown name is a
// small edit away from a known one, or "" otherwise.
func suggest(name string, known []string) string {
	best, bestDist := "", 3 // accept distance <= 2
	for _, k := range known {
		if d := editDistance(strings.ToLower(name), strings.ToLower(k)); d < bestDist {
			best, bestDist = k, d
		}
	}
	if best == "" {
		return ""
	}
	return fmt.Sprintf(" (did you mean %q?)", best)
}

// editDistance is the Levenshtein distance over bytes, capped in
// practice by suggest's threshold so the O(len^2) cost is trivial.
func editDistance(a, b string) int {
	if a == b {
		return 0
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, min(cur[j-1]+1, prev[j-1]+cost))
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
