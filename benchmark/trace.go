package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one interval recorded by the benchmark around a call into a
// layer's public API. Spans of one request share Trace (the wire
// FrameID); Parent is the index of the span that caused this one, or
// -1 for a root.
type span struct {
	Name   string `json:"name"`
	Parent int32  `json:"parent"`
	Trace  uint64 `json:"trace,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the benchmark ends. A nil
// recorder records nothing, so the untraced run executes the same
// statements minus the appends.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (r *recorder) on() bool { return r != nil }

// now is nanoseconds since the recorder's epoch (0 when off).
func (r *recorder) now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// add appends a finished span and returns its index.
func (r *recorder) add(name string, parent int32, trace uint64, start, end int64) int32 {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{Name: name, Parent: parent, Trace: trace, Start: start, End: end})
	id := int32(len(r.spans) - 1)
	r.mu.Unlock()
	return id
}

// begin opens a span; the caller closes it with end.
func (r *recorder) begin(name string, parent int32, trace uint64) int32 {
	if r == nil {
		return -1
	}
	return r.add(name, parent, trace, r.now(), 0)
}

func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id].End = t
	r.mu.Unlock()
}

// spanStat is the per-name summary of a trace.
type spanStat struct {
	Count   int     `json:"count"`
	TotalMs float64 `json:"total_ms"`
	SelfMs  float64 `json:"self_ms"`
}

// selfTimes computes each span's self time — its duration minus the
// part of that interval its child spans cover (overlapping children
// are not counted twice, and a child is clipped to its parent) — and
// sums it per span name.
func selfTimes(spans []span) map[string]spanStat {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	out := make(map[string]spanStat)
	for i, s := range spans {
		dur := s.End - s.Start
		if dur < 0 {
			dur = 0
		}
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		var covered int64
		cursor := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < cursor {
				lo = cursor
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				cursor = hi
			}
		}
		st := out[s.Name]
		st.Count++
		st.TotalMs += float64(dur) / 1e6
		st.SelfMs += float64(dur-covered) / 1e6
		out[s.Name] = st
	}
	return out
}

// write dumps the spans as one JSON document.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(r.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
