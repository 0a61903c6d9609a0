package main

import (
	"math"
	"runtime"
	"slices"
	"time"
)

// window is one closed-loop measurement interval: ops completed and the
// wall time they took.
type window struct {
	ops     uint64
	elapsed time.Duration
}

func (w window) rate() float64 { return float64(w.ops) / w.elapsed.Seconds() }

// windowFunc runs one side of the workload closed-loop for about d.
type windowFunc func(d time.Duration) window

// alternate runs pairs of equally long windows, a then b on even pairs and
// b then a on odd ones, so slow drift of the host hits both sides alike.
// It returns both sides' rates, pair by pair.
func alternate(pairs int, d time.Duration, a, b windowFunc) (aRates, bRates []float64) {
	for i := 0; i < pairs; i++ {
		var x, y window
		if i%2 == 0 {
			x = a(d)
			y = b(d)
		} else {
			y = b(d)
			x = a(d)
		}
		aRates = append(aRates, x.rate())
		bRates = append(bRates, y.rate())
	}
	return aRates, bRates
}

// ratios returns a[i]/b[i]: the per-pair ratio cancels the drift of
// absolute rates from process to process.
func ratios(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] / b[i]
	}
	return out
}

// median returns the median of xs (0 for none). The benchmark reports
// medians of windows rather than the best window: the maximum of a set of
// windows spreads about twice as much from process to process.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the q-quantile (0..1) of sorted samples, linearly
// interpolated between neighbouring ranks.
func percentile(sorted []int32, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	f := pos - float64(lo)
	return float64(sorted[lo])*(1-f) + float64(sorted[hi])*f
}

// latencies collects per-window latency percentiles. Each window's samples
// are sorted on their own and the run reports the median of the windows'
// percentiles, which keeps one preempted window from moving the result.
type latencies struct {
	p50, p99 []float64
}

// add records one window's samples (nanoseconds); it sorts buf in place.
// Windows with fewer than 1,000 samples are dropped: their p99 would rest
// on fewer than ten samples beyond it.
func (l *latencies) add(buf []int32) {
	if len(buf) < 1000 {
		return
	}
	slices.Sort(buf)
	l.p50 = append(l.p50, percentile(buf, 0.50))
	l.p99 = append(l.p99, percentile(buf, 0.99))
}

func (l *latencies) medians() (p50, p99 float64) { return median(l.p50), median(l.p99) }

// clampNs converts a duration to int32 nanoseconds for the sample buffers.
func clampNs(d time.Duration) int32 {
	if d > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// setupResult describes repeated constructions of a workload state.
type setupResult struct {
	seconds  float64 // median construction time
	gcCycles float64 // median GC cycles completed during one construction
	heapMB   float64 // live heap the last construction added, after a GC
}

// measureSetup builds the workload state repeatedly — at least minReps and
// at most maxReps times, stopping early once budget is spent — and reports
// the median construction time. A single construction is too short (or too
// exposed to one GC cycle) to time steadily. Every construction starts from
// a collected heap, so each one pays the same GC pacing. The heap the kept
// state retains is measured as a difference of collected heaps, so the
// benchmark's own inputs and buffers do not count.
func measureSetup[S any](build func() S, minReps, maxReps int, budget time.Duration) (S, setupResult) {
	var state S
	var secs, gcs []float64
	var before, after runtime.MemStats
	began := time.Now()
	for i := 0; i < maxReps; i++ {
		var zero S
		state = zero
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		state = build()
		secs = append(secs, time.Since(start).Seconds())
		runtime.ReadMemStats(&after)
		gcs = append(gcs, float64(after.NumGC-before.NumGC))
		if i+1 >= minReps && time.Since(began) >= budget {
			break
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(state)
	heap := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
	return state, setupResult{seconds: median(secs), gcCycles: median(gcs), heapMB: heap}
}

// rng is a per-goroutine xorshift64* generator; every workload derives its
// inputs from the --seed through one of these.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	r := &rng{s: seed*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d}
	if r.s == 0 {
		r.s = 1
	}
	return r
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// distinctKeys returns n distinct positive keys below limit.
func distinctKeys(r *rng, n int, limit uint64) []int64 {
	seen := make(map[int64]bool, n)
	keys := make([]int64, 0, n)
	for len(keys) < n {
		k := int64(r.next()%(limit-1)) + 1
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	return keys
}
