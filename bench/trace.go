package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// Spans are recorded only by the benchmark, around its own calls into
// each layer; nothing inside the program is instrumented. One request
// in traceEvery is traced in full, and all spans of a request share its
// sequence id.
const traceEvery = 64

// Parent values of a span besides an index into its own lane.
const (
	noParent  = -1
	seqParent = -2 // the root span of the same sequence id, in any lane
)

// laneSpanCap bounds the spans one goroutine keeps, so that a fast
// workload's trace stays a file a viewer can open; spans past it are
// counted as dropped.
const laneSpanCap = 1 << 15

type span struct {
	name       string
	seq        uint64
	start, end time.Duration // since the tracer's epoch
	parent     int32
}

// lane is the span buffer of one goroutine; only that goroutine writes.
type lane struct {
	name    string
	spans   []span
	dropped int
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	epoch time.Time
	lanes []*lane
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// lane adds a lane; call before the goroutine that owns it starts.
func (t *tracer) lane(name string) *lane {
	if t == nil {
		return nil
	}
	l := &lane{name: name, spans: make([]span, 0, laneSpanCap)}
	t.lanes = append(t.lanes, l)
	return l
}

// traced reports whether request seq is one the lane records.
func (l *lane) traced(seq uint64) bool { return l != nil && seq%traceEvery == 0 }

// add records one finished span and returns its index for children.
func (l *lane) add(t *tracer, name string, seq uint64, parent int32, t0, t1 time.Time) int32 {
	if len(l.spans) == cap(l.spans) {
		l.dropped++
		return noParent
	}
	l.spans = append(l.spans, span{name: name, seq: seq, start: t0.Sub(t.epoch), end: t1.Sub(t.epoch), parent: parent})
	return int32(len(l.spans) - 1)
}

// spanRef addresses a span across lanes.
type spanRef struct{ lane, idx int }

// resolve returns each span's parent (or {-1,-1}) and its self time:
// its duration minus the part of it that its children cover.
func (t *tracer) resolve() (parents map[spanRef]spanRef, self map[spanRef]time.Duration) {
	roots := map[uint64]spanRef{}
	for li, l := range t.lanes {
		for i, s := range l.spans {
			if s.parent == noParent {
				roots[s.seq] = spanRef{li, i}
			}
		}
	}
	parents = map[spanRef]spanRef{}
	children := map[spanRef][]spanRef{}
	for li, l := range t.lanes {
		for i, s := range l.spans {
			me := spanRef{li, i}
			p := spanRef{-1, -1}
			switch {
			case s.parent >= 0:
				p = spanRef{li, int(s.parent)}
			case s.parent == seqParent:
				if r, ok := roots[s.seq]; ok {
					p = r
				}
			}
			parents[me] = p
			if p.lane >= 0 {
				children[p] = append(children[p], me)
			}
		}
	}
	self = map[spanRef]time.Duration{}
	for li, l := range t.lanes {
		for i, s := range l.spans {
			me := spanRef{li, i}
			self[me] = s.end - s.start - t.covered(s, children[me])
		}
	}
	return parents, self
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func (t *tracer) covered(p span, kids []spanRef) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := t.lanes[k.lane].spans[k.idx]
		a, b := max(c.start, p.start), min(c.end, p.end)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// selfSummary is the exact p50 and p99 self time of every span name.
type selfSummary struct {
	name string
	tail tail
}

func (t *tracer) selfTimes(self map[spanRef]time.Duration) []selfSummary {
	by := map[string][]int64{}
	for ref, d := range self {
		name := t.lanes[ref.lane].spans[ref.idx].name
		by[name] = append(by[name], int64(d))
	}
	var out []selfSummary
	for name, ds := range by {
		slices.Sort(ds)
		out = append(out, selfSummary{name, tail{N: len(ds), P50: nearestRank(ds, 500), P99: nearestRank(ds, 990), Max: ds[len(ds)-1]}})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata); Perfetto and chrome://tracing open the file offline.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// write stores the trace as Chrome trace-event JSON at path.
func (t *tracer) write(path string, stamp map[string]any) error {
	parents, self := t.resolve()
	events := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "wfq bench"}}}
	for li, l := range t.lanes {
		events = append(events, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: li + 1, Args: map[string]any{"name": l.name}})
		for i, s := range l.spans {
			me := spanRef{li, i}
			args := map[string]any{"seq": s.seq, "id": fmt.Sprintf("%d.%d", li+1, i), "self_us": usec(int64(self[me]))}
			if p := parents[me]; p.lane >= 0 {
				args["parent"] = fmt.Sprintf("%d.%d", p.lane+1, p.idx)
			}
			events = append(events, chromeEvent{
				Name: s.name, Cat: "bench", Ph: "X", Pid: 1, Tid: li + 1,
				Ts: usec(int64(s.start)), Dur: usec(int64(s.end - s.start)), Args: args,
			})
		}
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{
		"traceEvents":     events,
		"displayTimeUnit": "ns",
		"otherData":       stamp,
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
