package spef

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// importFingerprint renders everything an import produced, floats as
// bit patterns, so two imports compare bit for bit.
func importFingerprint(imp *ImportedNetwork) string {
	var b strings.Builder
	n := imp.Network
	fmt.Fprintf(&b, "name %q inferred %d\n", imp.Name, imp.InferredLinks)
	for v := range n.NumNodes() {
		fmt.Fprintf(&b, "node %d %q\n", v, n.NodeName(v))
	}
	for e := range n.NumLinks() {
		from, to, c := n.Link(e)
		fmt.Fprintf(&b, "link %d %d->%d %016x\n", e, from, to, math.Float64bits(c))
	}
	if d := imp.Demands; d != nil {
		for s := range n.NumNodes() {
			for t := range n.NumNodes() {
				if v := d.At(s, t); v != 0 {
					fmt.Fprintf(&b, "demand %d->%d %016x\n", s, t, math.Float64bits(v))
				}
			}
		}
	}
	return b.String()
}

// fuzzImporter checks one importer's invariants on arbitrary bytes and
// a default capacity: every error is ErrBadInput, every import is a
// valid network (demands sized to it), and the same bytes import to
// the same network twice.
func fuzzImporter(t *testing.T, read func(io.Reader, ImportOptions) (*ImportedNetwork, error), data []byte, defaultCap float64) {
	opts := ImportOptions{DefaultCapacity: defaultCap}
	imp, err := read(bytes.NewReader(data), opts)
	if err != nil {
		if !errors.Is(err, ErrBadInput) {
			t.Fatalf("error is not ErrBadInput: %v", err)
		}
		return
	}
	if err := imp.Network.Validate(); err != nil {
		t.Fatalf("imported network fails Validate: %v", err)
	}
	if imp.Demands != nil && imp.Demands.m.Size() != imp.Network.NumNodes() {
		t.Fatalf("%d-node demands for a %d-node network", imp.Demands.m.Size(), imp.Network.NumNodes())
	}
	again, err := read(bytes.NewReader(data), opts)
	if err != nil {
		t.Fatalf("second import failed: %v", err)
	}
	if a, b := importFingerprint(imp), importFingerprint(again); a != b {
		t.Fatalf("the same bytes imported differently:\n%s\n---\n%s", a, b)
	}
}

// seedImporter adds the committed fixture, its halves and a few
// malformed documents as seeds.
func seedImporter(f *testing.F, fixture string, malformed ...string) {
	data, err := os.ReadFile(fixture)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data, 0.0)
	f.Add(data, 2.5)
	f.Add(data[:len(data)/2], 0.0)
	f.Add(data, math.NaN())
	for _, m := range malformed {
		f.Add([]byte(m), 0.0)
	}
}

// FuzzReadTopologyZoo: the GraphML importer either fails as
// ErrBadInput or imports a valid network, the same one every time.
func FuzzReadTopologyZoo(f *testing.F) {
	seedImporter(f, "internal/topoio/testdata/testnet.graphml",
		"not xml at all",
		`<graphml><graph><node id="a"/><node id="a"/></graph></graphml>`,
		`<graphml><graph><node id="a"/><node id="b"/><edge source="a" target="b"/></graph></graphml>`,
		`<graphml><graph><node id="a"/><edge source="a" target="a"/></graph></graphml>`)
	f.Fuzz(func(t *testing.T, data []byte, defaultCap float64) {
		fuzzImporter(t, ReadTopologyZoo, data, defaultCap)
	})
}

// FuzzReadSNDlib: the SNDlib importer either fails as ErrBadInput or
// imports a valid network with demands sized to it, the same one every
// time.
func FuzzReadSNDlib(f *testing.F) {
	seedImporter(f, "internal/topoio/testdata/testnet.txt",
		"not sndlib at all",
		"NODES (\n a ( 0 0 )\n b ( 1 1 )\n)\nLINKS (\n l ( a b ) 1 0 0 0 ( )\n)\nDEMANDS (\n d ( a b ) 1 NaN UNLIMITED\n)\n",
		"NODES (\n a ( 0 0 )\n)\nLINKS (\n l ( a a ) 1 0 0 0 ( )\n)\n")
	f.Fuzz(func(t *testing.T, data []byte, defaultCap float64) {
		fuzzImporter(t, ReadSNDlib, data, defaultCap)
	})
}
