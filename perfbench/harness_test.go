package main

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jthread"
)

// Harness rules found while sizing the benchmark, each pinned here.

// One VM per process, worker threads attached once: thread ids restart at 1
// in every VM, and per-window VMs sharing a lock livelocked.
func TestThreadsAttachedOncePerVM(t *testing.T) {
	vm := jthread.NewVM()
	w, _ := newTreePaced(1, vm)
	w.startWriter()
	for i := 0; i < 3; i++ {
		w.soleroWindow(5 * time.Millisecond)
		w.twinWindow(5 * time.Millisecond)
	}
	w.latencyWindow(5*time.Millisecond, 0, nil)
	w.stopWriter()
	if n := vm.NumThreads(); n != 2 {
		t.Errorf("VM has %d threads after several windows, want the 2 attached at setup", n)
	}
	if w.reader.ID() == w.writer.ID() {
		t.Errorf("reader and writer share thread id %d", w.reader.ID())
	}

	vm2 := jthread.NewVM()
	h, _ := newReadHot(1, vm2)
	h.soleroWindow(5 * time.Millisecond)
	h.twinWindow(5 * time.Millisecond)
	if n := vm2.NumThreads(); n != 1 {
		t.Errorf("read-hot VM has %d threads, want 1", n)
	}
}

// Sinks stay per goroutine: workload.MapBench (and harness.Measure, built
// for it) add every read into a global sink, a shared read-modify-write on
// the "write-free" path, so the benchmark must not drive runs through them.
func TestNoSharedSinkPackages(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, imp := range af.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if path == "repro/internal/workload" || path == "repro/internal/harness" {
				t.Errorf("%s imports %s", f, path)
			}
		}
	}
}

// Windows are summarised by their median, not harness.Measure's best-of:
// the maximum spread twice as much between processes.
func TestMedianOfWindows(t *testing.T) {
	if got := median([]float64{9, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	a := []float64{10, 20}
	if got := ratios(a, []float64{5, 40}); got[0] != 2 || got[1] != 0.5 {
		t.Errorf("ratios = %v", got)
	}
	var l latencies
	l.add(make([]int32, 10)) // too few samples for a p99
	if len(l.p50) != 0 {
		t.Error("a window with fewer than 1,000 samples was kept")
	}
	buf := make([]int32, 1000)
	for i := range buf {
		buf[len(buf)-1-i] = int32(i)
	}
	l.add(buf)
	if p50, p99 := l.medians(); p50 != 499.5 || p99 < 989 || p99 > 990 {
		t.Errorf("p50, p99 = %v, %v", p50, p99)
	}
}

// Every result is printed with GOMAXPROCS and nproc.
func TestEnvRecordsParallelism(t *testing.T) {
	b, err := json.Marshal(envOf(config{workload: "read-hot", seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if m["gomaxprocs"] != float64(runtime.GOMAXPROCS(0)) || m["nproc"] != float64(runtime.NumCPU()) {
		t.Errorf("env = %s", b)
	}
}

func TestParseArgs(t *testing.T) {
	cfg, err := parseArgs([]string{"--workload", "sessions", "--seed", "4", "--seconds", "2", "--trace", "1"})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.workload != "sessions" || cfg.seed != 4 || cfg.seconds != 2 || !cfg.trace || cfg.traceOut == "" {
		t.Errorf("cfg = %+v", cfg)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "read-hot", "--trace", "2"},
		{"--workload", "read-hot", "--seconds", "0"},
	} {
		if _, err := parseArgs(bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestSummarizeSelfTime(t *testing.T) {
	tr := &tracer{period: 1, spans: []span{
		{start: 0, end: 100, parent: -1, name: spanReadOnly},
		{start: 10, end: 30, parent: 0, name: spanBodyRead},
		{start: 40, end: 0, parent: 0, name: spanBodyRead}, // abandoned speculation
		{start: 50, end: 60, parent: 0, name: spanBodyRead},
		{start: 200, end: 260, parent: -1, name: spanSync},
		{start: 210, end: 300, parent: 4, name: spanBodyWrite}, // overruns its parent
	}}
	s := summarize(tr)
	if got := s.self[spanReadOnly]; len(got) != 1 || got[0] != 70 {
		t.Errorf("ReadOnly self = %v, want [70]", got)
	}
	if got := s.self[spanSync]; len(got) != 1 || got[0] != 10 {
		t.Errorf("Sync self = %v, want [10] (child clipped to its parent)", got)
	}
	if s.readBodies != 3 || s.n[spanReadOnly] != 1 {
		t.Errorf("readBodies = %d over %d reads, want 3 over 1", s.readBodies, s.n[spanReadOnly])
	}
	if got := s.dur[spanBodyRead]; len(got) != 2 {
		t.Errorf("completed body durations = %v, want 2", got)
	}
	if got := trimmedMean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("trimmedMean = %v", got)
	}
}

func TestTracerSamplingAndCapacity(t *testing.T) {
	if p := samplePeriod(1000, 2, 100); p != 32 {
		t.Errorf("samplePeriod = %d, want 32", p)
	}
	tr := newTracer(time.Now(), 1, "t", 4, 8)
	var sampled int
	for op := uint64(0); op < 64; op++ {
		if tr.sampled(op) {
			sampled++
			tr.end(tr.begin(spanRmapGet, -1, op))
		}
	}
	if sampled != 5 || len(tr.spans) != 5 {
		t.Errorf("sampled %d ops into %d spans, want 5 (capacity 8 minus a four-span reserve)", sampled, len(tr.spans))
	}
	var nilTracer *tracer
	if nilTracer.sampled(0) {
		t.Error("a nil tracer sampled")
	}
}

func TestChromeTrace(t *testing.T) {
	epoch := time.Now()
	tr := newTracer(epoch, 1, "reader", 1, 16)
	root := tr.begin(spanReadOnly, -1, 0)
	tr.end(tr.begin(spanBodyRead, root, 0))
	tr.end(root)
	tr.begin(spanBodyRead, root, 0) // never ended
	path := filepath.Join(t.TempDir(), "sub", "trace.json")
	if err := writeChrome(path, map[string]any{"workload": "x"}, tr, nil); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		OtherData   map[string]any `json:"otherData"`
		TraceEvents []chromeEvent  `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("not JSON: %v\n%s", err, b)
	}
	if doc.OtherData["workload"] != "x" || len(doc.TraceEvents) != 4 {
		t.Fatalf("trace = %s", b)
	}
	body := doc.TraceEvents[2]
	if body.Ph != "X" || body.Name != "body.read" || body.Args["parent"] != "1.0" || body.Args["id"] != "1.1" || body.Args["op"] != float64(0) {
		t.Errorf("body event = %+v", body)
	}
	if doc.TraceEvents[3].Args["aborted"] != true {
		t.Errorf("unfinished span not marked aborted: %+v", doc.TraceEvents[3])
	}
}
