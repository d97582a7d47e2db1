package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer: its name, its interval in
// nanoseconds since the recorder started, the index of the span that
// made the call (-1 for a root), and the operation it belongs to (-1
// for reference work outside any measured operation).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps the spans of a traced run in memory; they are written
// out only when the run ends. It is used from one goroutine.
type recorder struct {
	t0    time.Time
	spans []span
	curOp int // operation the next root span opens
}

func newRecorder() *recorder { return &recorder{t0: time.Now(), curOp: -1} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginOp opens the root span of a new measured operation.
func (r *recorder) beginOp(name string) int {
	r.curOp++
	return r.begin(name, -1)
}

// beginRef opens a root span of reference work that belongs to no
// operation (a probe, or the single-process path a sharded run is
// checked against).
func (r *recorder) beginRef(name string) int {
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: -1, Op: -1})
	return len(r.spans) - 1
}

// begin opens a span called by parent and returns its index.
func (r *recorder) begin(name string, parent int) int {
	op := r.curOp
	if parent >= 0 {
		op = r.spans[parent].Op
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: parent, Op: op})
	return len(r.spans) - 1
}

// end closes the span.
func (r *recorder) end(id int) { r.spans[id].End = r.now() }

// op runs f as a new measured operation; f receives the root span.
func (r *recorder) op(name string, f func(root int) error) error {
	id := r.beginOp(name)
	defer r.end(id)
	return f(id)
}

// ref runs f as reference work outside any operation.
func (r *recorder) ref(name string, f func(root int) error) error {
	id := r.beginRef(name)
	defer r.end(id)
	return f(id)
}

// in runs f inside a span named name, called by parent.
func (r *recorder) in(parent int, name string, f func() error) error {
	id := r.begin(name, parent)
	defer r.end(id)
	return f()
}

// selfTimes returns each span's duration minus the union of the
// intervals its children cover inside it. Children of one span may
// overlap (parallel calls) or stick out of it; both are handled by
// clipping to the parent and merging.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				iv = append(iv, [2]int64{a, b})
			}
		}
		sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
		var covered, hi int64
		lo := int64(-1)
		for _, v := range iv {
			switch {
			case lo < 0:
				lo, hi = v[0], v[1]
			case v[0] > hi:
				covered += hi - lo
				lo, hi = v[0], v[1]
			case v[1] > hi:
				hi = v[1]
			}
		}
		if lo >= 0 {
			covered += hi - lo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// traceSummary aggregates a recorder's spans by name.
type traceSummary struct {
	opTime int64            // summed duration of operation roots
	ops    int              // operation count
	self   map[string]int64 // summed self time per span name
	total  map[string]int64 // summed duration per span name
	calls  map[string]int   // span count per name
	// opSelf is self time per span name inside operations; reference
	// work (Op -1) has no entry.
	opSelf map[string]int64
	// worstGap is the largest relative difference between an
	// operation's summed self times and its root's duration.
	worstGap float64
}

func (r *recorder) summary() traceSummary {
	self := selfTimes(r.spans)
	ts := traceSummary{self: map[string]int64{}, total: map[string]int64{}, calls: map[string]int{}, opSelf: map[string]int64{}}
	perOp := map[int]int64{}
	for i, s := range r.spans {
		ts.self[s.Name] += self[i]
		ts.total[s.Name] += s.dur()
		ts.calls[s.Name]++
		if s.Op >= 0 {
			perOp[s.Op] += self[i]
			ts.opSelf[s.Name] += self[i]
		}
	}
	for _, s := range r.spans {
		if s.Parent >= 0 || s.Op < 0 {
			continue
		}
		ts.ops++
		ts.opTime += s.dur()
		if d := s.dur(); d > 0 {
			gap := float64(perOp[s.Op]-d) / float64(d)
			if gap < 0 {
				gap = -gap
			}
			ts.worstGap = max(ts.worstGap, gap)
		}
	}
	return ts
}

// share returns a span name's self time inside operations as a share of
// the operations' summed wall time.
func (ts traceSummary) share(name string) float64 {
	if ts.opTime == 0 {
		return 0
	}
	return float64(ts.opSelf[name]) / float64(ts.opTime)
}

// table renders the per-name breakdown, largest self time first; the
// share column reads "ref" for reference work outside the operations.
func (ts traceSummary) table() string {
	names := make([]string, 0, len(ts.self))
	for n := range ts.self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if ts.self[names[i]] != ts.self[names[j]] {
			return ts.self[names[i]] > ts.self[names[j]]
		}
		return names[i] < names[j]
	})
	out := fmt.Sprintf("%-28s %8s %12s %12s %8s\n", "span", "calls", "self_ms", "total_ms", "self_%")
	for _, n := range names {
		share := "ref"
		if _, ok := ts.opSelf[n]; ok {
			share = fmt.Sprintf("%.2f", 100*ts.share(n))
		}
		out += fmt.Sprintf("%-28s %8d %12.3f %12.3f %8s\n", n, ts.calls[n],
			float64(ts.self[n])/1e6, float64(ts.total[n])/1e6, share)
	}
	return out + fmt.Sprintf("%d operations, %.3f ms traced\n", ts.ops, float64(ts.opTime)/1e6)
}

// writeSpans writes the spans as one JSON array.
func (r *recorder) writeSpans(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
