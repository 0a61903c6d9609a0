package main

import (
	"runtime"
	"time"

	"repro/internal/jthread"
	"repro/solero"
)

// Window lengths. Ratio windows are short and alternate between the two
// sides many times, so the host's intermittent slow and fast spells hit
// both sides alike; latency windows (traced runs only) are long enough that
// even the paced writer's p99 rests on 20 samples beyond it.
const (
	pairWindow    = 20 * time.Millisecond
	pairsPerRound = 4
	latencyWindow = 100 * time.Millisecond
	warmPairs     = 10
	spanCapacity  = 1 << 17 // spans kept per traced goroutine
	layerShare    = 0.4     // share of a traced run spent on traced-only windows
)

// pairsFor is the number of SOLERO/twin window pairs in an untraced run of
// the given length.
func pairsFor(seconds float64) int {
	return max(8, int(seconds/(2*pairWindow.Seconds())))
}

// rounds runs the first phase of a traced run: rounds of pairsPerRound
// alternating untraced/traced window pairs, each followed by one untraced
// latency window (none if latency is nil), until seconds are spent.
// Interleaving keeps throughput and latency sampled over the same stretch
// of the run. It returns both sides' window rates.
func rounds(seconds float64, untraced, traced windowFunc, latency func(d time.Duration)) (rates, tracedRates []float64) {
	round := 2 * pairsPerRound * pairWindow
	if latency != nil {
		round += latencyWindow
	}
	n := max(4, int(seconds/round.Seconds()))
	for i := 0; i < n; i++ {
		a, b := alternate(pairsPerRound, pairWindow, untraced, traced)
		rates = append(rates, a...)
		tracedRates = append(tracedRates, b...)
		if latency != nil {
			latency(latencyWindow)
		}
	}
	return rates, tracedRates
}

// setEndToEnd reports the end-to-end metrics. Only metrics that held their
// bound from run to run on the reference VM are here; absolute throughput
// and latency drifted with the host's load and are per-layer metrics.
func setEndToEnd(rep *report, ratios []float64, setup setupResult) {
	rep.set("ops_vs_rwmutex", "ratio", median(ratios))
	rep.set("heap_mb", "MB", setup.heapMB)
	rep.set("setup_s", "s", setup.seconds)
	share := 1.0
	if rep.attempted > 0 {
		share = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	rep.set("correct_ops_share", "ratio", share)
}

// layerInputs is what a traced run hands setLayers.
type layerInputs struct {
	spans         *spanSummary
	counts        lockCounts // core.Stats deltas over the traced phase
	reads, writes uint64     // operations issued over the same phase
	untraced      []float64  // ops/s of untraced windows
	traced        []float64  // ops/s of the paired traced windows
	readLat       *latencies // untraced latency windows; nil on read-hot
	writeLat      *latencies
	setup         setupResult
	writerLate    float64
	ladder        map[string]float64
	bytesPerLock  float64
}

// setLayers reports every per-layer metric. A layer the workload bypasses
// reports 0 (rmap outside read-hot; the paced writer outside tree-paced;
// write latency on read-hot, which never writes through rmap).
func setLayers(rep *report, in layerInputs) {
	ops := median(in.untraced)
	rep.set("ops_per_s", "1/s", ops)
	// Without latency windows (read-hot) read latency is 1e9/ops_per_s and
	// the write path is bypassed.
	rp50, rp99 := 1e9/ops, 1e9/ops
	var wp50, wp99 float64
	if in.readLat != nil {
		rp50, rp99 = in.readLat.medians()
		wp50, wp99 = in.writeLat.medians()
	}
	rep.set("read_p50_ns", "ns", rp50)
	rep.set("read_p99_ns", "ns", rp99)
	rep.set("write_p50_ns", "ns", wp50)
	rep.set("write_p99_ns", "ns", wp99)
	s := in.spans
	rep.set("collections.get_ns", "ns", trimmedMean(s.dur[spanBodyRead]))
	rep.set("collections.put_ns", "ns", trimmedMean(s.dur[spanBodyWrite]))
	rep.set("core.readonly_self_ns", "ns", trimmedMean(s.self[spanReadOnly]))
	rep.set("core.sync_self_ns", "ns", trimmedMean(s.self[spanSync]))
	rep.set("rmap.get_ns", "ns", trimmedMean(s.dur[spanRmapGet]))
	rep.set("core.body_runs_per_read", "ratio", perUnit(float64(s.readBodies), uint64(s.n[spanReadOnly]), 1))
	c := in.counts
	rep.set("core.elision_success_ratio", "ratio", perUnit(float64(c.successes), c.attempts, 1))
	rep.set("core.fallbacks_per_kread", "count/kread", perUnit(float64(c.fallbacks), in.reads, 1000))
	rep.set("core.read_fat_enters_per_kread", "count/kread", perUnit(float64(c.readFatEnters), in.reads, 1000))
	rep.set("core.inflations_per_kwrite", "count/kwrite", perUnit(float64(c.inflations), in.writes, 1000))
	rep.set("core.slow_acquires_per_kwrite", "count/kwrite", perUnit(float64(c.slowAcquires), in.writes, 1000))
	rep.set("core.bytes_per_lock", "B", in.bytesPerLock)
	rep.set("runtime.gc_cycles_setup", "count", in.setup.gcCycles)
	rep.set("harness.writer_late_share", "ratio", in.writerLate)
	rep.set("trace.overhead_ratio", "ratio", median(ratios(in.untraced, in.traced)))
	for name, ns := range in.ladder {
		rep.set(name, "ns", ns)
	}
}

func perUnit(n float64, d uint64, scale float64) float64 {
	if d == 0 {
		return 0
	}
	return scale * n / float64(d)
}

// bytesPerLock measures the live heap one solero.NewLock adds.
func bytesPerLock() float64 {
	const n = 4096
	locks := make([]*solero.Lock, n)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range locks {
		locks[i] = solero.NewLock(nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(locks)
	return float64(after.HeapAlloc-before.HeapAlloc) / n
}

// attachOnce attaches the workload's threads to the process's VM; windows
// reuse them for the whole run.
func attachOnce(vm *jthread.VM, names ...string) []*jthread.Thread {
	out := make([]*jthread.Thread, len(names))
	for i, n := range names {
		out[i] = vm.Attach(n)
	}
	return out
}
