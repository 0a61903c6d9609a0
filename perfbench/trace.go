package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// spanName identifies the layer boundary a span was recorded at. Spans are
// recorded by this package around calls into each module's public
// functions; nothing inside the modules is instrumented.
type spanName uint8

const (
	spanRmapGet   spanName = iota // rmap.Map.Get
	spanReadOnly                  // core/solero ReadOnly, around the whole section
	spanSync                      // core/solero Sync, around the whole section
	spanBodyRead                  // the read section's closure body (data-structure lookup)
	spanBodyWrite                 // the writing section's closure body (data-structure update)
	numSpanNames
)

var spanNames = [numSpanNames]string{
	spanRmapGet:   "rmap.Get",
	spanReadOnly:  "core.ReadOnly",
	spanSync:      "core.Sync",
	spanBodyRead:  "body.read",
	spanBodyWrite: "body.write",
}

// span is one recorded interval. end stays 0 when the span never ended: a
// speculative body abandoned by a panic the lock recovered from.
type span struct {
	start, end int64 // ns since the tracer's epoch
	op         uint64
	parent     int32 // index into the same tracer's spans; -1 for a root
	name       spanName
}

// tracer records sampled spans of one goroutine into a preallocated buffer
// (no sharing, no allocation while measuring). A nil *tracer records
// nothing.
type tracer struct {
	epoch  time.Time
	tid    int
	label  string
	period uint64 // every period-th op is traced; a power of two
	spans  []span
}

func newTracer(epoch time.Time, tid int, label string, period uint64, capacity int) *tracer {
	return &tracer{epoch: epoch, tid: tid, label: label, period: period, spans: make([]span, 0, capacity)}
}

// sampled reports whether op is traced: it falls on the sampling period and
// the buffer still has room for its spans (at most four per op).
func (tr *tracer) sampled(op uint64) bool {
	return tr != nil && op&(tr.period-1) == 0 && len(tr.spans)+4 <= cap(tr.spans)
}

func (tr *tracer) now() int64 { return int64(time.Since(tr.epoch)) }

// begin opens a span and returns its index for end.
func (tr *tracer) begin(name spanName, parent int32, op uint64) int32 {
	tr.spans = append(tr.spans, span{start: tr.now(), op: op, parent: parent, name: name})
	return int32(len(tr.spans) - 1)
}

func (tr *tracer) end(i int32) { tr.spans[i].end = tr.now() }

// samplePeriod picks the power-of-two sampling period at which expectedOps
// operations, each recording spansPerOp spans, fill about capacity spans.
func samplePeriod(expectedOps float64, spansPerOp, capacity int) uint64 {
	p := uint64(1)
	for float64(p)*float64(capacity) < expectedOps*float64(spansPerOp) {
		p <<= 1
	}
	return p
}

// spanSummary is what the per-layer metrics are computed from.
type spanSummary struct {
	dur  [numSpanNames][]float64 // completed spans' durations, ns
	self [numSpanNames][]float64 // durations minus the time their children cover
	n    [numSpanNames]int       // spans recorded, completed or not
	// readBodies counts body.read spans whose parent is a core.ReadOnly
	// span: one per speculative execution of the section.
	readBodies int
}

// summarize computes durations and self times. A span's self time is its
// duration minus the part of its interval covered by its children.
func summarize(tracers ...*tracer) *spanSummary {
	s := &spanSummary{}
	for _, tr := range tracers {
		if tr == nil {
			continue
		}
		covered := make([]int64, len(tr.spans))
		for _, sp := range tr.spans {
			if sp.parent < 0 {
				continue
			}
			p := tr.spans[sp.parent]
			if p.name == spanReadOnly && sp.name == spanBodyRead {
				s.readBodies++
			}
			if sp.end == 0 || p.end == 0 {
				continue
			}
			lo, hi := max(sp.start, p.start), min(sp.end, p.end)
			if hi > lo {
				covered[sp.parent] += hi - lo
			}
		}
		for i, sp := range tr.spans {
			s.n[sp.name]++
			if sp.end == 0 {
				continue
			}
			d := sp.end - sp.start
			s.dur[sp.name] = append(s.dur[sp.name], float64(d))
			s.self[sp.name] = append(s.self[sp.name], float64(d-covered[i]))
		}
	}
	return s
}

// trimmedMean is the mean of xs without its largest 1%: spans hit by a
// preemption or a timer interrupt would otherwise dominate a mean of
// sub-microsecond intervals.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	s = s[:len(s)-len(s)/100]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// chromeEvent is one Chrome trace-event ("X" complete event or "M"
// metadata); Perfetto and chrome://tracing open a file of these.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes every tracer's spans to path as Chrome trace-event
// JSON. Span ids and parents are global across tracers ("<tid>.<index>");
// op is the traced operation's id within its goroutine.
func writeChrome(path string, meta map[string]any, tracers ...*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":`)
	if err := enc.Encode(meta); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	fmt.Fprintf(w, `,"traceEvents":[`)
	first := true
	emit := func(ev chromeEvent) error {
		if !first {
			w.WriteByte(',')
		}
		first = false
		return enc.Encode(ev)
	}
	for _, tr := range tracers {
		if tr == nil {
			continue
		}
		if err := emit(chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: tr.tid, Args: map[string]any{"name": tr.label}}); err != nil {
			return fmt.Errorf("trace output: %w", err)
		}
		for i, sp := range tr.spans {
			dur := 0.0
			args := map[string]any{"id": fmt.Sprintf("%d.%d", tr.tid, i), "op": sp.op}
			if sp.parent >= 0 {
				args["parent"] = fmt.Sprintf("%d.%d", tr.tid, sp.parent)
			}
			if sp.end == 0 {
				args["aborted"] = true
			} else {
				dur = float64(sp.end-sp.start) / 1e3
			}
			ev := chromeEvent{Name: spanNames[sp.name], Cat: "perfbench", Ph: "X", Pid: 1, Tid: tr.tid,
				Ts: float64(sp.start) / 1e3, Dur: &dur, Args: args}
			if err := emit(ev); err != nil {
				return fmt.Errorf("trace output: %w", err)
			}
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
