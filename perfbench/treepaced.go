package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collections/treemap"
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/montable"
	"repro/solero"
)

// tree-paced: one closed-loop reader runs ReadOnly Gets on one SOLERO lock
// guarding the paper's 1,024-key TreeMap (Fig. 13) while one open-loop
// writer Puts existing keys at a fixed 20,000 writes/s in 2 ms ticks. The
// twin runs the same pair of goroutines under sync.RWMutex. The fixed write
// rate keeps write pressure independent of how fast the reader is, so
// speculation failures, fallbacks, the writer slow path and
// inflation/deflation are exercised at a steady level.

// The writer paces itself with time.Sleep, which on the reference VM does
// not wake sooner than about 1.1 ms after it is called (a 200 µs sleep
// returns after 1.12 ms at the median). With 1 ms ticks every other tick
// started late; 2 ms ticks of 40 writes keep the same rate on time.
const (
	treeKeys      = 1024
	writeTick     = 2 * time.Millisecond
	writesPerTick = 40 // 20,000 writes/s
)

type treePaced struct {
	keys           []int64
	lock           *solero.Lock
	tree           *treemap.Map[int64]
	twinMu         sync.RWMutex
	twinTree       *treemap.Map[int64]
	reader, writer *jthread.Thread

	rr, wr rng // reader's and writer's op streams
	// versions counts writes per key index, per side, for the final check;
	// only the writer touches them until it has stopped.
	versions, twinVersions []uint32

	// reader-side totals (main goroutine)
	reads, bad, attempted uint64

	// The writer goroutine lives for the whole run; each reader window
	// points it at its own side through target.
	target             atomic.Int32
	latencyIdx         atomic.Int32 // latency window the timed writes belong to
	stop               atomic.Bool
	done               sync.WaitGroup
	wt                 *tracer // writer spans, for targetTraced
	writes, twinWrites atomic.Uint64
	ticks, lateTicks   atomic.Uint64
	writeSamples       []writeSample // targetTimed durations; read after stopWriter
}

// Writer targets, switched by the reader at window boundaries.
const (
	targetSolero int32 = iota // untraced SOLERO writes
	targetTwin                // sync.RWMutex twin writes
	targetTimed               // SOLERO writes, each Put timed
	targetTraced              // SOLERO writes, sampled spans into wt
)

type writeSample struct {
	window int32
	ns     int32
}

func buildTree(keys []int64) *treemap.Map[int64] {
	m := treemap.New[int64]()
	for _, k := range keys {
		m.Put(k, treeValue(k, 0))
	}
	return m
}

func newTreePaced(seed uint64, vm *jthread.VM) (*treePaced, setupResult) {
	r := newRNG(seed)
	th := attachOnce(vm, "reader", "writer")
	w := &treePaced{
		keys: distinctKeys(r, treeKeys, 1<<38), reader: th[0], writer: th[1],
		rr: *newRNG(seed + 1), wr: *newRNG(seed + 2),
		versions: make([]uint32, treeKeys), twinVersions: make([]uint32, treeKeys),
	}
	type state struct {
		lock *solero.Lock
		tree *treemap.Map[int64]
	}
	st, setup := measureSetup(func() state {
		return state{lock: newTreeLock(), tree: buildTree(w.keys)}
	}, 51, 401, 300*time.Millisecond)
	w.lock, w.tree = st.lock, st.tree
	w.twinTree = buildTree(w.keys)
	return w, setup
}

// newTreeLock makes the SOLERO lock with its fat mode in the compact
// monitor table, the fat mode the design keeps. The classic per-lock
// monitor can livelock under this workload: contendAndInflate sets the FLC
// bit with an unconditional Or after seeing a held flat word, so the bit
// can land on a word another thread has just inflated, and fatEnter's
// exact compare with InflatedWord never matches that word again. The table
// path masks FLC when it resolves a ticket word.
func newTreeLock() *solero.Lock {
	cfg := *core.DefaultConfig
	cfg.Monitors = montable.New(montable.Config{})
	return solero.NewLock(&cfg)
}

// startWriter starts the paced writer; stopWriter stops it and waits for
// it. The writer writes writesPerTick keys per writeTick to the current
// target. A tick that starts after the next one was already due counts as
// late; missed ticks are caught up, so the write rate stays fixed.
func (w *treePaced) startWriter() {
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		r := w.wr
		next := time.Now()
		for !w.stop.Load() {
			now := time.Now()
			if d := next.Sub(now); d > 0 {
				time.Sleep(d)
				now = time.Now()
			}
			if now.Sub(next) > writeTick {
				w.lateTicks.Add(1)
			}
			w.ticks.Add(1)
			target := w.target.Load()
			for i := 0; i < writesPerTick; i++ {
				j := r.next() & (treeKeys - 1)
				switch target {
				case targetTwin:
					w.twinPut(j)
				case targetTimed:
					start := time.Now()
					w.soleroPut(j, nil)
					w.writeSamples = append(w.writeSamples, writeSample{w.latencyIdx.Load(), clampNs(time.Since(start))})
				case targetTraced:
					w.soleroPut(j, w.wt)
				default:
					w.soleroPut(j, nil)
				}
			}
			next = next.Add(writeTick)
		}
		w.wr = r
	}()
}

func (w *treePaced) stopWriter() {
	w.stop.Store(true)
	w.done.Wait()
}

// soleroPut writes key j under the SOLERO lock, recording spans when tr
// samples the write.
func (w *treePaced) soleroPut(j uint64, tr *tracer) {
	op := w.writes.Add(1) - 1
	w.versions[j]++
	k, v := w.keys[j], treeValue(w.keys[j], w.versions[j])
	if !tr.sampled(op) {
		w.lock.Sync(w.writer, func() { w.tree.Put(k, v) })
		return
	}
	root := tr.begin(spanSync, -1, op)
	w.lock.Sync(w.writer, func() {
		b := tr.begin(spanBodyWrite, root, op)
		w.tree.Put(k, v)
		tr.end(b)
	})
	tr.end(root)
}

func (w *treePaced) twinPut(j uint64) {
	w.twinVersions[j]++
	k, v := w.keys[j], treeValue(w.keys[j], w.twinVersions[j])
	w.twinMu.Lock()
	w.twinTree.Put(k, v)
	w.twinMu.Unlock()
	w.twinWrites.Add(1)
}

func (w *treePaced) soleroWindow(d time.Duration) window {
	w.target.Store(targetSolero)
	t, lock, tree, keys, r := w.reader, w.lock, w.tree, w.keys, w.rr
	var ops, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			k := keys[r.next()&(treeKeys-1)]
			got := solero.ReadOnly(lock, t, func() lookup {
				v, ok := tree.Get(k)
				return lookup{v, ok}
			})
			if !checkTreeValue(k, got.v, got.ok) {
				bad++
			}
		}
		ops += 64
		if el := time.Since(start); el >= d {
			w.rr = r
			w.reads += ops
			w.attempted += ops
			w.bad += bad
			return window{ops, el}
		}
	}
}

func (w *treePaced) twinWindow(d time.Duration) window {
	w.target.Store(targetTwin)
	mu, tree, keys, r := &w.twinMu, w.twinTree, w.keys, w.rr
	var ops, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			k := keys[r.next()&(treeKeys-1)]
			mu.RLock()
			v, ok := tree.Get(k)
			mu.RUnlock()
			if !checkTreeValue(k, v, ok) {
				bad++
			}
		}
		ops += 64
		if el := time.Since(start); el >= d {
			w.rr = r
			w.attempted += ops
			w.bad += bad
			return window{ops, el}
		}
	}
}

type lookup struct {
	v  int64
	ok bool
}

// latencyWindow times every reader Get, and has the writer time every Put,
// on the SOLERO side. Writer latency is the Sync call's own duration; how
// late the generator ran is reported separately
// (harness.writer_late_share).
func (w *treePaced) latencyWindow(d time.Duration, idx int32, rbuf []int32) []int32 {
	w.latencyIdx.Store(idx)
	w.target.Store(targetTimed)
	t, lock, tree, keys, r := w.reader, w.lock, w.tree, w.keys, w.rr
	var ops, bad uint64
	start := time.Now()
	last := start
	for last.Sub(start) < d {
		k := keys[r.next()&(treeKeys-1)]
		got := solero.ReadOnly(lock, t, func() lookup {
			v, ok := tree.Get(k)
			return lookup{v, ok}
		})
		now := time.Now()
		rbuf = append(rbuf, clampNs(now.Sub(last)))
		last = now
		if !checkTreeValue(k, got.v, got.ok) {
			bad++
		}
		ops++
	}
	w.target.Store(targetSolero)
	w.rr = r
	w.reads += ops
	w.attempted += ops
	w.bad += bad
	return rbuf
}

func runTreePaced(cfg config, vm *jthread.VM) *report {
	w, setup := newTreePaced(cfg.seed, vm)
	rep := newReport()
	if cfg.trace {
		w.wt = newTracer(time.Now(), 2, "writer", samplePeriod(writesPerTick/writeTick.Seconds()*cfg.seconds, 2, spanCapacity), spanCapacity)
	}
	w.startWriter()
	alternate(warmPairs, pairWindow, w.soleroWindow, w.twinWindow)
	if cfg.trace {
		w.traced(cfg, setup, rep) // stops the writer
		w.finish(rep)
		return rep
	}
	rates, twin := alternate(pairsFor(cfg.seconds), pairWindow, w.soleroWindow, w.twinWindow)
	w.stopWriter()
	w.finish(rep)
	setEndToEnd(rep, ratios(rates, twin), setup)
	return rep
}

// writeLatencies groups the writer's timed samples by the latency window
// they fell in; call it after stopWriter.
func (w *treePaced) writeLatencies() *latencies {
	var l latencies
	buf := make([]int32, 0, 1<<14)
	for i, s := range w.writeSamples {
		buf = append(buf, s.ns)
		if i+1 == len(w.writeSamples) || w.writeSamples[i+1].window != s.window {
			l.add(buf)
			buf = buf[:0]
		}
	}
	return &l
}

// finish runs the post-run checks: every key present and tagged by its
// key, each key's version equal to the writes issued to it, the lock free
// and thin, and every read accounted for in the lock's stats.
func (w *treePaced) finish(rep *report) {
	rep.attempted += w.attempted + w.writes.Load() + w.twinWrites.Load()
	rep.failed += w.bad
	rep.check(checkSize("tree", w.tree.Len(), treeKeys))
	rep.check(checkSize("twin tree", w.twinTree.Len(), treeKeys))
	var bad uint64
	for j, k := range w.keys {
		v, ok := w.tree.Get(k)
		if !checkTreeValue(k, v, ok) || v != treeValue(k, w.versions[j]) {
			bad++
		}
		v, ok = w.twinTree.Get(k)
		if !checkTreeValue(k, v, ok) || v != treeValue(k, w.twinVersions[j]) {
			bad++
		}
	}
	rep.check(checkNone("tree keys with a wrong final version", bad))
	rep.check(checkQuiescent(wordsOf(w.lock)))
	rep.check(checkCoverage(countsOf(w.lock), w.reads))
}

// traced is tree-paced's traced run: untraced and traced windows alternate
// (for trace.overhead_ratio), then traced windows run alone; the reader and
// the writer each record their own spans.
func (w *treePaced) traced(cfg config, setup setupResult, rep *report) {
	warm := w.soleroWindow(pairWindow)
	rt := newTracer(w.wt.epoch, 1, "reader", samplePeriod(warm.rate()*cfg.seconds, 2, spanCapacity), spanCapacity)
	tracedWindow := func(d time.Duration) window {
		w.target.Store(targetTraced)
		t, lock, tree, keys, r := w.reader, w.lock, w.tree, w.keys, w.rr
		var ops, bad uint64
		start := time.Now()
		for {
			for i := 0; i < 64; i++ {
				op := w.reads + ops + uint64(i)
				k := keys[r.next()&(treeKeys-1)]
				var got lookup
				if rt.sampled(op) {
					root := rt.begin(spanReadOnly, -1, op)
					got = solero.ReadOnly(lock, t, func() lookup {
						b := rt.begin(spanBodyRead, root, op)
						v, ok := tree.Get(k)
						rt.end(b)
						return lookup{v, ok}
					})
					rt.end(root)
				} else {
					got = solero.ReadOnly(lock, t, func() lookup {
						v, ok := tree.Get(k)
						return lookup{v, ok}
					})
				}
				if !checkTreeValue(k, got.v, got.ok) {
					bad++
				}
			}
			ops += 64
			if el := time.Since(start); el >= d {
				w.target.Store(targetSolero)
				w.rr = r
				w.reads += ops
				w.attempted += ops
				w.bad += bad
				return window{ops, el}
			}
		}
	}
	before, reads0, writes0, ticks0, late0 := countsOf(w.lock), w.reads, w.writes.Load(), w.ticks.Load(), w.lateTicks.Load()
	var readLat latencies
	rbuf := make([]int32, 0, 1<<20)
	var idx int32
	untraced, traced := rounds((1-layerShare)*cfg.seconds, w.soleroWindow, tracedWindow, func(d time.Duration) {
		rbuf = w.latencyWindow(d, idx, rbuf[:0])
		readLat.add(rbuf)
		idx++
	})
	for end := time.Now().Add(time.Duration(layerShare * cfg.seconds * float64(time.Second))); time.Now().Before(end); {
		tracedWindow(pairWindow)
	}
	counts := countsOf(w.lock).sub(before)
	reads, writes := w.reads-reads0, w.writes.Load()-writes0
	ticks, late := w.ticks.Load()-ticks0, w.lateTicks.Load()-late0
	w.stopWriter() // before the ladder, and before the writer's spans are read
	ladder := runLadder(w.reader)
	setLayers(rep, layerInputs{
		spans: summarize(rt, w.wt), counts: counts, reads: reads, writes: writes,
		untraced: untraced, traced: traced, readLat: &readLat, writeLat: w.writeLatencies(), setup: setup,
		writerLate: perUnit(float64(late), ticks, 1),
		ladder:     ladder, bytesPerLock: bytesPerLock(),
	})
	rep.check(writeChrome(cfg.traceOut, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "env": envOf(cfg)}, rt, w.wt))
}
