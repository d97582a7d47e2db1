package spef

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/topoio"
	"repro/internal/traffic"
)

// ImportOptions tune how imported files' capacity annotations are
// interpreted; the zero value selects the defaults documented on
// each field. A negative or non-finite value is bad input.
type ImportOptions struct {
	// DefaultCapacity, when positive, is assigned to links the file
	// does not annotate. Zero infers it: the median of the file's
	// annotated capacities, or 1 when nothing is annotated.
	DefaultCapacity float64
	// CapacityUnit divides bit/s annotations into topology units
	// (default 1e9: Gbps). It applies to GraphML speed annotations;
	// SNDlib capacities are abstract units and pass through unchanged.
	CapacityUnit float64
}

// internal checks and converts the options: zero selects a default,
// and a negative or non-finite value is bad input.
func (o ImportOptions) internal() (topoio.Options, error) {
	for _, v := range []float64{o.DefaultCapacity, o.CapacityUnit} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return topoio.Options{}, fmt.Errorf("%w: import options DefaultCapacity=%v and CapacityUnit=%v must be finite and >= 0 (0 selects the default)",
				ErrBadInput, o.DefaultCapacity, o.CapacityUnit)
		}
	}
	return topoio.Options{DefaultCapacity: o.DefaultCapacity, CapacityUnit: o.CapacityUnit}, nil
}

// ImportedNetwork is a topology read from an external dataset file.
type ImportedNetwork struct {
	// Name is the name the file declares for itself ("Abilene" in a
	// Topology Zoo file's Network attribute, the "# network" comment of
	// an SNDlib file), possibly empty.
	Name string
	// Network is the imported topology.
	Network *Network
	// Demands is the file's demand matrix (SNDlib files carry one);
	// nil when the format has none.
	Demands *Demands
	// InferredLinks counts the links whose capacity was inferred by the
	// unannotated-link rule rather than read from the file.
	InferredLinks int
}

// ReadTopologyZoo parses a Topology Zoo GraphML document (see
// topology-zoo.org). Undirected edges become duplex link pairs; link
// speeds resolve through LinkSpeedRaw, LinkSpeed x LinkSpeedUnits or a
// parsable LinkLabel, and unannotated links through the inference rule
// of ImportOptions. A document it cannot import is ErrBadInput.
func ReadTopologyZoo(r io.Reader, opts ImportOptions) (*ImportedNetwork, error) {
	imp, err := readImported(r, opts, topoio.ReadGraphML)
	return imp, asBadInput(err)
}

// ReadSNDlib parses an SNDlib native-format network (see
// sndlib.zib.de), including its DEMANDS section when present. A file
// it cannot import is ErrBadInput.
func ReadSNDlib(r io.Reader, opts ImportOptions) (*ImportedNetwork, error) {
	imp, err := readImported(r, opts, topoio.ReadSNDlib)
	return imp, asBadInput(err)
}

// readImported imports r with one of the topoio parsers. A file the
// parser rejects is topoio.ErrBadFile, which the public readers report
// as ErrBadInput and the registry as a bad spec.
func readImported(r io.Reader, opts ImportOptions, parse func(io.Reader, topoio.Options) (*topoio.Imported, error)) (*ImportedNetwork, error) {
	o, err := opts.internal()
	if err != nil {
		return nil, err
	}
	imp, err := parse(r, o)
	if err != nil {
		return nil, err
	}
	return fromImported(imp)
}

func fromImported(imp *topoio.Imported) (*ImportedNetwork, error) {
	n := &Network{g: imp.G}
	out := &ImportedNetwork{Name: imp.Name, Network: n, InferredLinks: imp.InferredLinks}
	if imp.Demands != nil {
		m, err := traffic.FromDemands(n.NumNodes(), imp.Demands)
		if err != nil {
			return nil, fmt.Errorf("%w: imported demands: %v", ErrBadInput, err)
		}
		out.Demands = &Demands{m: m}
	}
	return out, nil
}

// LoadTopologyFile imports a topology dataset file, selecting the
// parser by extension: ".graphml"/".xml" parse as Topology Zoo GraphML,
// everything else as SNDlib native format. The returned name falls
// back to the file's base name when the file does not declare one.
func LoadTopologyFile(path string, opts ImportOptions) (*ImportedNetwork, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var imp *ImportedNetwork
	switch strings.ToLower(filepath.Ext(path)) {
	case ".graphml", ".xml":
		imp, err = ReadTopologyZoo(f, opts)
	default:
		imp, err = ReadSNDlib(f, opts)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if imp.Name == "" {
		imp.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	}
	return imp, nil
}
