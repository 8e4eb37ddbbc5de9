package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer.  Spans nest: Parent indexes the
// enclosing span (-1 for the root), and Req names the request that
// caused the work (0 outside any request).
type span struct {
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Parent int               `json:"parent"`
	Req    int               `json:"req"`
	Attrs  map[string]string `json:"attrs,omitempty"`
	// Work is the amount the call processed (messages, accesses, hops,
	// bytes), for throughput metrics.
	Work float64 `json:"work,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	req   int
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) parent() int {
	if len(t.stack) == 0 {
		return -1
	}
	return t.stack[len(t.stack)-1]
}

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string, attrs map[string]string) int {
	t.spans = append(t.spans, span{Name: name, Start: t.now(), Parent: t.parent(), Req: t.req, Attrs: attrs})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes span id, which must be the innermost open one.
func (t *tracer) end(id int, work float64) {
	t.spans[id].End = t.now()
	t.spans[id].Work = work
	t.stack = t.stack[:len(t.stack)-1]
}

// adopt records a span measured elsewhere (the program's own probe)
// under parent, clamped into the parent's interval.
func (t *tracer) adopt(name string, start, end int64, parent int, attrs map[string]string) int {
	p := t.spans[parent]
	start = min(max(start, p.Start), p.End)
	end = min(max(end, start), p.End)
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: parent, Req: p.Req, Attrs: attrs})
	return len(t.spans) - 1
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover.
func (t *tracer) selfTimes() []time.Duration {
	children := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			ks, ke := max(t.spans[k].Start, reach), t.spans[k].End
			if ke > ks {
				covered += ke - ks
				reach = ke
			}
		}
		self[i] = s.dur() - time.Duration(covered)
	}
	return self
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
