// Command perfbench is the repository's end-to-end benchmark: three
// workloads over the public SOLERO API, each scored against a
// sync.RWMutex twin measured in alternating windows of the same process,
// plus a traced run that times each layer from outside. See README.md for
// why each workload exists; run it through run.sh, which builds it from the
// surrounding checkout.
//
//	perfbench --workload read-hot|tree-paced|sessions --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/jthread"
)

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what a workload run produces.
type report struct {
	metrics   map[string]metricValue
	attempted uint64 // operations issued, SOLERO and twin sides together
	failed    uint64 // operations whose result failed its check
	errs      []error
}

func newReport() *report { return &report{metrics: map[string]metricValue{}} }

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metricValue{v, unit} }

func (r *report) check(err error) {
	if err != nil {
		r.errs = append(r.errs, err)
	}
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *report) result() result {
	return result{Correct: r.failed == 0 && len(r.errs) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: r.metrics}
}

// env describes the machine a result was measured on; it is printed with
// every result, because reader scaling and absolute rates depend on it.
type env struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	Go         string  `json:"go"`
	GOARCH     string  `json:"goarch"`
	Workload   string  `json:"workload"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

func envOf(cfg config) env {
	return env{
		GOMAXPROCS: runtime.GOMAXPROCS(0), NProc: runtime.NumCPU(), Go: runtime.Version(), GOARCH: runtime.GOARCH,
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
	}
}

// workloads maps each workload name to its runner. Every runner uses the
// process's single VM: thread ids restart at 1 in each VM, so two VMs
// sharing a lock would hand out the same owner id twice.
var workloads = map[string]func(cfg config, vm *jthread.VM) *report{
	"read-hot":   runReadHot,
	"tree-paced": runTreePaced,
	"sessions":   runSessions,
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: read-hot, tree-paced or sessions")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced run (per-layer metrics)")
	fs.StringVar(&cfg.traceOut, "trace-out", "", "Chrome trace-event JSON path for the traced run (default .bench_build/perfbench/trace-<workload>-<seed>.json)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		return cfg, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, names)
	}
	if cfg.seconds < 1 || cfg.seconds > 600 {
		return cfg, fmt.Errorf("--seconds %v out of range [1, 600]", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	if cfg.traceOut == "" {
		cfg.traceOut = filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-%d.json", cfg.workload, cfg.seed))
	}
	return cfg, nil
}

// watchdog ends a run that has not finished within limit, printing every
// goroutine's stack and exiting with code 3. A livelocked lock, such as
// core's classic fat-mode entry can produce (see README.md), must fail the
// run, not hang it.
func watchdog(limit time.Duration) {
	time.AfterFunc(limit, func() {
		buf := make([]byte, 1<<20)
		n := runtime.Stack(buf, true)
		fmt.Fprintf(os.Stderr, "perfbench: run exceeded %v; goroutines:\n%s", limit, buf[:n])
		os.Exit(3)
	})
}

func main() {
	cfg, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	envLine, _ := json.Marshal(map[string]env{"env": envOf(cfg)})
	fmt.Println(string(envLine))
	watchdog(time.Duration(2*cfg.seconds*float64(time.Second)) + time.Minute)

	start := time.Now()
	rep := workloads[cfg.workload](cfg, jthread.NewVM())
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	names := make([]string, 0, len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep.metrics[n]
		fmt.Fprintf(os.Stderr, "%-30s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(os.Stderr, "wall %.1fs, attempted %d, failed %d\n", time.Since(start).Seconds(), rep.attempted, rep.failed)
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
