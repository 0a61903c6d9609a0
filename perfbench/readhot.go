package main

import (
	"sync"
	"time"

	"repro/internal/collections/hashmap"
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/solero/rmap"
)

// read-hot: one closed-loop goroutine does 100% Get through the public
// rmap API on 1,024 keys; the twin is the same hashmap shards under
// sync.RWMutex. Everything fits in L1/L2 and nothing writes while reads
// are measured, so the time is almost all the elided read fast path.

const readHotKeys = 1024 // a power of two: op streams index with a mask

type hotShard struct {
	mu   sync.RWMutex
	data *hashmap.Map[int64]
}

// coreShard replicates rmap's shard layout with the benchmark's own
// core.Lock, so the traced run can put spans inside the section closure.
type coreShard struct {
	lock *core.Lock
	data *hashmap.Map[int64]
}

type readHot struct {
	keys, vals []int64
	m          *rmap.Map[int64]
	twin       []hotShard
	t          *jthread.Thread
	r          rng

	reads, bad, attempted uint64
}

// shardIndex is rmap's shard function, so the twin spreads keys the same way.
func shardIndex(k int64, mask uint64) uint64 {
	return (uint64(k) * 0x9e3779b97f4a7c15 >> 32) & mask
}

func buildReadHotMap(t *jthread.Thread, keys, vals []int64) *rmap.Map[int64] {
	m := rmap.New[int64](0, nil)
	for i, k := range keys {
		m.Put(t, k, vals[i])
	}
	return m
}

func newHotTwin(keys, vals []int64) []hotShard {
	sh := make([]hotShard, rmap.DefaultShards)
	for i := range sh {
		sh[i].data = hashmap.New[int64](0)
	}
	for i, k := range keys {
		sh[shardIndex(k, rmap.DefaultShards-1)].data.Put(k, vals[i])
	}
	return sh
}

func newCoreShards(keys, vals []int64) []coreShard {
	sh := make([]coreShard, rmap.DefaultShards)
	for i := range sh {
		sh[i] = coreShard{lock: core.New(nil), data: hashmap.New[int64](0)}
	}
	for i, k := range keys {
		sh[shardIndex(k, rmap.DefaultShards-1)].data.Put(k, vals[i])
	}
	return sh
}

func newReadHot(seed uint64, vm *jthread.VM) (*readHot, setupResult) {
	r := newRNG(seed)
	w := &readHot{keys: distinctKeys(r, readHotKeys, 1<<40), t: attachOnce(vm, "reader")[0], r: *newRNG(seed + 1)}
	w.vals = make([]int64, readHotKeys)
	for i := range w.vals {
		w.vals[i] = int64(r.next() >> 1)
	}
	m, setup := measureSetup(func() *rmap.Map[int64] { return buildReadHotMap(w.t, w.keys, w.vals) }, 51, 401, 300*time.Millisecond)
	w.m = m
	w.twin = newHotTwin(w.keys, w.vals)
	return w, setup
}

func (w *readHot) soleroWindow(d time.Duration) window {
	t, m, keys, vals, r := w.t, w.m, w.keys, w.vals, w.r
	var ops, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			j := r.next() & (readHotKeys - 1)
			v, ok := m.Get(t, keys[j])
			if !checkLookup(v, ok, vals[j]) {
				bad++
			}
		}
		ops += 64
		if el := time.Since(start); el >= d {
			w.r = r
			w.reads += ops
			w.attempted += ops
			w.bad += bad
			return window{ops, el}
		}
	}
}

func (w *readHot) twinWindow(d time.Duration) window {
	sh, keys, vals, r := w.twin, w.keys, w.vals, w.r
	var ops, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			j := r.next() & (readHotKeys - 1)
			k := keys[j]
			s := &sh[shardIndex(k, rmap.DefaultShards-1)]
			s.mu.RLock()
			v, ok := s.data.Get(k)
			s.mu.RUnlock()
			if !checkLookup(v, ok, vals[j]) {
				bad++
			}
		}
		ops += 64
		if el := time.Since(start); el >= d {
			w.r = r
			w.attempted += ops
			w.bad += bad
			return window{ops, el}
		}
	}
}

func runReadHot(cfg config, vm *jthread.VM) *report {
	w, setup := newReadHot(cfg.seed, vm)
	rep := newReport()
	alternate(warmPairs, pairWindow, w.soleroWindow, w.twinWindow)
	if cfg.trace {
		w.traced(cfg, setup, rep)
		w.finish(rep)
		return rep
	}
	rates, twin := alternate(pairsFor(cfg.seconds), pairWindow, w.soleroWindow, w.twinWindow)
	w.finish(rep)
	setEndToEnd(rep, ratios(rates, twin), setup)
	return rep
}

// finish runs the post-run checks on the rmap state.
func (w *readHot) finish(rep *report) {
	rep.attempted += w.attempted
	rep.failed += w.bad
	rep.check(checkSize("rmap", w.m.Len(w.t), readHotKeys))
	var bad uint64
	for i, k := range w.keys {
		if v, ok := w.m.Get(w.t, k); !checkLookup(v, ok, w.vals[i]) {
			bad++
		}
	}
	rep.check(checkNone("rmap keys with a wrong value", bad))
	st := w.m.Stats()
	rep.check(checkCoverage(lockCounts{attempts: st.ElisionAttempts}, w.reads))
}

// traced is read-hot's traced run. rmap hides its locks, so the core and
// collections layers are traced on coreShards, the benchmark's replica of
// rmap's shard layout, while rmap.Get is traced around the public call.
func (w *readHot) traced(cfg config, setup setupResult, rep *report) {
	epoch := time.Now()
	warm := w.soleroWindow(pairWindow)
	expected := warm.rate() * cfg.seconds * 0.3
	tr := newTracer(epoch, 1, "reader", samplePeriod(expected, 1, spanCapacity/2), spanCapacity)
	var opSeq uint64 // op ids stay unique across windows
	tracedRmap := func(d time.Duration) window {
		t, m, keys, vals, r := w.t, w.m, w.keys, w.vals, w.r
		var ops, bad uint64
		start := time.Now()
		for {
			for i := 0; i < 64; i++ {
				j := r.next() & (readHotKeys - 1)
				op := opSeq
				opSeq++
				var v int64
				var ok bool
				if tr.sampled(op) {
					s := tr.begin(spanRmapGet, -1, op)
					v, ok = m.Get(t, keys[j])
					tr.end(s)
				} else {
					v, ok = m.Get(t, keys[j])
				}
				if !checkLookup(v, ok, vals[j]) {
					bad++
				}
			}
			ops += 64
			if el := time.Since(start); el >= d {
				w.r = r
				w.reads += ops
				w.attempted += ops
				w.bad += bad
				return window{ops, el}
			}
		}
	}
	// No latency windows: per-call timing of a ~70 ns Get is mostly clock,
	// so read latency is reported as 1e9/ops_per_s.
	untraced, traced := rounds((1-layerShare)*cfg.seconds, w.soleroWindow, tracedRmap, nil)

	// Layer windows on the replica: reads, and one write in eight storing
	// the value already there.
	shards := newCoreShards(w.keys, w.vals)
	locks := make([]*core.Lock, len(shards))
	for i := range shards {
		locks[i] = shards[i].lock
	}
	before := countsOf(locks...)
	var reads, writes, bad uint64
	r := w.r
	deadline := time.Now().Add(time.Duration(layerShare * cfg.seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for i := 0; i < 64; i++ {
			op := opSeq
			opSeq++
			j := r.next() & (readHotKeys - 1)
			k, want := w.keys[j], w.vals[j]
			s := &shards[shardIndex(k, rmap.DefaultShards-1)]
			write := r.next()&7 == 0 // one write in eight: enough write spans to time
			if write {
				writes++
				if tr.sampled(op) {
					root := tr.begin(spanSync, -1, op)
					s.lock.Sync(w.t, func() {
						b := tr.begin(spanBodyWrite, root, op)
						s.data.Put(k, want)
						tr.end(b)
					})
					tr.end(root)
				} else {
					s.lock.Sync(w.t, func() { s.data.Put(k, want) })
				}
				continue
			}
			reads++
			var v int64
			var ok bool
			if tr.sampled(op) {
				root := tr.begin(spanReadOnly, -1, op)
				s.lock.ReadOnly(w.t, func() {
					b := tr.begin(spanBodyRead, root, op)
					v, ok = s.data.Get(k)
					tr.end(b)
				})
				tr.end(root)
			} else {
				s.lock.ReadOnly(w.t, func() { v, ok = s.data.Get(k) })
			}
			if !checkLookup(v, ok, want) {
				bad++
			}
		}
	}
	w.r = r
	w.attempted += reads + writes
	w.bad += bad
	counts := countsOf(locks...).sub(before)
	rep.check(checkCoverage(counts, reads))
	rep.check(checkQuiescent(wordsOf(locks...)))

	in := layerInputs{
		spans: summarize(tr), counts: counts, reads: reads, writes: writes,
		untraced: untraced, traced: traced, setup: setup,
		ladder: runLadder(w.t), bytesPerLock: bytesPerLock(),
	}
	setLayers(rep, in)
	rep.check(writeChrome(cfg.traceOut, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "env": envOf(cfg)}, tr))
}
