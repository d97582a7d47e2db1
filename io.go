package spef

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The text format `spef topogen` writes and `spef optimize` reads. Lines:
//
//	# comment
//	node <name>
//	link <fromName> <toName> <capacity>
//	duplex <aName> <bName> <capacity>
//	demand <srcName> <dstName> <volume>
//
// Nodes must be declared before they are referenced.

// ParseNetworkAndDemands reads the text format and returns the network
// plus its (possibly empty) demand set.
func ParseNetworkAndDemands(r io.Reader) (*Network, *Demands, error) {
	n := NewNetwork()
	type pending struct {
		src, dst int
		volume   float64
	}
	var demandLines []pending
	sc := bufio.NewScanner(r)
	lineNo := 0
	nodeOf := func(name string) (int, error) {
		id, ok := n.NodeByName(name)
		if !ok {
			return 0, fmt.Errorf("%w: line %d: unknown node %q", ErrBadInput, lineNo, name)
		}
		return id, nil
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("%w: line %d: node wants 1 argument", ErrBadInput, lineNo)
			}
			if _, ok := n.NodeByName(fields[1]); ok {
				return nil, nil, fmt.Errorf("%w: line %d: duplicate node %q", ErrBadInput, lineNo, fields[1])
			}
			n.AddNode(fields[1])
		case "link", "duplex":
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("%w: line %d: %s wants 3 arguments", ErrBadInput, lineNo, fields[0])
			}
			a, err := nodeOf(fields[1])
			if err != nil {
				return nil, nil, err
			}
			b, err := nodeOf(fields[2])
			if err != nil {
				return nil, nil, err
			}
			capacity, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: line %d: bad capacity %q", ErrBadInput, lineNo, fields[3])
			}
			if fields[0] == "link" {
				_, err = n.AddLink(a, b, capacity)
			} else {
				_, _, err = n.AddDuplex(a, b, capacity)
			}
			if err != nil {
				return nil, nil, fmt.Errorf("spef: line %d: %w", lineNo, err)
			}
		case "demand":
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("%w: line %d: demand wants 3 arguments", ErrBadInput, lineNo)
			}
			s, err := nodeOf(fields[1])
			if err != nil {
				return nil, nil, err
			}
			t, err := nodeOf(fields[2])
			if err != nil {
				return nil, nil, err
			}
			v, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("%w: line %d: bad volume %q", ErrBadInput, lineNo, fields[3])
			}
			demandLines = append(demandLines, pending{src: s, dst: t, volume: v})
		default:
			return nil, nil, fmt.Errorf("%w: line %d: unknown directive %q", ErrBadInput, lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if n.NumNodes() == 0 {
		return nil, nil, fmt.Errorf("%w: no nodes declared", ErrBadInput)
	}
	d := NewDemands(n)
	for _, p := range demandLines {
		if err := d.Add(p.src, p.dst, p.volume); err != nil {
			return nil, nil, err
		}
	}
	return n, d, nil
}

// WriteNetworkAndDemands emits the text format. d may be nil.
func WriteNetworkAndDemands(w io.Writer, n *Network, d *Demands) error {
	if d != nil {
		if err := checkDemands(n, d); err != nil {
			return err
		}
	}
	bw := bufio.NewWriter(w)
	name := n.nodeLabel
	for i := 0; i < n.NumNodes(); i++ {
		fmt.Fprintf(bw, "node %s\n", name(i))
	}
	// Emit duplex pairs once; leftover one-way links individually. An
	// endpoint-keyed index finds each link's reverse partner in O(1)
	// amortized (parallel links queue up under the same key), keeping
	// the whole emission linear in the link count.
	type endpoints struct{ from, to int }
	candidates := make(map[endpoints][]int, n.NumLinks())
	for id := 0; id < n.NumLinks(); id++ {
		from, to, _ := n.Link(id)
		key := endpoints{from, to}
		candidates[key] = append(candidates[key], id)
	}
	written := make([]bool, n.NumLinks())
	for id := 0; id < n.NumLinks(); id++ {
		if written[id] {
			continue
		}
		from, to, capacity := n.Link(id)
		rev := -1
		key := endpoints{to, from}
		queue := candidates[key]
		kept := queue[:0]
		for i, other := range queue {
			if written[other] {
				continue // consumed earlier; drop from the index
			}
			if rev < 0 {
				if _, _, oCap := n.Link(other); oCap == capacity {
					rev = other
					continue
				}
			}
			kept = append(kept, queue[i])
		}
		candidates[key] = kept
		if rev >= 0 {
			written[rev] = true
			fmt.Fprintf(bw, "duplex %s %s %g\n", name(from), name(to), capacity)
		} else {
			fmt.Fprintf(bw, "link %s %s %g\n", name(from), name(to), capacity)
		}
		written[id] = true
	}
	if d != nil {
		for s := 0; s < n.NumNodes(); s++ {
			for t := 0; t < n.NumNodes(); t++ {
				if s == t {
					continue
				}
				if v := d.At(s, t); v > 0 {
					fmt.Fprintf(bw, "demand %s %s %g\n", name(s), name(t), v)
				}
			}
		}
	}
	return bw.Flush()
}
