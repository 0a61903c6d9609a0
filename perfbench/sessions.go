package main

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/jthread"
	"repro/solero"
)

// sessions: one closed-loop goroutine works over 131,072 session objects,
// each with its own solero.Lock and a three-field atomic payload, picked
// with Zipf s=1.1: 90% solero.ReadOnly snapshots, 10% Sync updates. The
// twin gives each object a sync.RWMutex. A SOLERO lock is far larger than
// a sync.RWMutex, so the working set is far larger than the caches: the
// per-lock footprint, lock-word and stats-stripe misses and allocation-
// heavy setup dominate, with no contention and no fat mode.

const (
	sessionCount = 1 << 17
	sessionOps   = 1 << 20 // precomputed op stream, replayed cyclically
	sessionZipfS = 1.1
	sessionWrite = 10 // one op in sessionWrite is an update
)

type session struct {
	lock    *solero.Lock
	a, b, c atomic.Int64 // a and b count updates; c is the owner tag
}

type twinSession struct {
	mu      sync.RWMutex
	a, b, c atomic.Int64
}

type sessions struct {
	objs []*session
	twin []*twinSession
	salt int64
	// ops encodes each operation as object<<1 | isWrite.
	ops []uint32
	pos uint64
	t   *jthread.Thread

	reads, writes, twinWrites, bad, attempted uint64
}

func (w *sessions) tag(i uint32) int64 { return int64(i) ^ w.salt }

func (w *sessions) build() []*session {
	objs := make([]*session, sessionCount)
	for i := range objs {
		s := &session{lock: solero.NewLock(nil)}
		s.c.Store(w.tag(uint32(i)))
		objs[i] = s
	}
	return objs
}

func newSessions(seed uint64, vm *jthread.VM) (*sessions, setupResult) {
	r := rand.New(rand.NewSource(int64(seed)))
	w := &sessions{salt: int64(seed) << 20, t: attachOnce(vm, "worker")[0]}
	// Zipf ranks map to objects through a permutation, so the hot objects
	// are scattered over the heap rather than allocated side by side.
	perm := r.Perm(sessionCount)
	z := rand.NewZipf(r, sessionZipfS, 1, sessionCount-1)
	w.ops = make([]uint32, sessionOps)
	for i := range w.ops {
		op := uint32(perm[z.Uint64()]) << 1
		if r.Intn(sessionWrite) == 0 {
			op |= 1
		}
		w.ops[i] = op
	}
	objs, setup := measureSetup(w.build, 3, 9, 2*time.Second)
	w.objs = objs
	w.twin = make([]*twinSession, sessionCount)
	for i := range w.twin {
		s := &twinSession{}
		s.c.Store(w.tag(uint32(i)))
		w.twin[i] = s
	}
	return w, setup
}

func (w *sessions) soleroWindow(d time.Duration) window {
	t, objs, ops, pos := w.t, w.objs, w.ops, w.pos
	var n, writes, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			op := ops[pos&(sessionOps-1)]
			pos++
			s := objs[op>>1]
			if op&1 != 0 {
				s.lock.Sync(t, func() {
					s.a.Add(1)
					s.b.Add(1)
				})
				writes++
				continue
			}
			snap := solero.ReadOnly(s.lock, t, func() snapshot {
				return snapshot{s.a.Load(), s.b.Load(), s.c.Load()}
			})
			if !checkSnapshot(snap, w.tag(op>>1)) {
				bad++
			}
		}
		n += 64
		if el := time.Since(start); el >= d {
			w.pos = pos
			w.reads += n - writes
			w.writes += writes
			w.attempted += n
			w.bad += bad
			return window{n, el}
		}
	}
}

func (w *sessions) twinWindow(d time.Duration) window {
	objs, ops, pos := w.twin, w.ops, w.pos
	var n, writes, bad uint64
	start := time.Now()
	for {
		for i := 0; i < 64; i++ {
			op := ops[pos&(sessionOps-1)]
			pos++
			s := objs[op>>1]
			if op&1 != 0 {
				s.mu.Lock()
				s.a.Add(1)
				s.b.Add(1)
				s.mu.Unlock()
				writes++
				continue
			}
			s.mu.RLock()
			snap := snapshot{s.a.Load(), s.b.Load(), s.c.Load()}
			s.mu.RUnlock()
			if !checkSnapshot(snap, w.tag(op>>1)) {
				bad++
			}
		}
		n += 64
		if el := time.Since(start); el >= d {
			w.pos = pos
			w.twinWrites += writes
			w.attempted += n
			w.bad += bad
			return window{n, el}
		}
	}
}

// latencyWindow times every SOLERO operation, reads and writes into their
// own buffers.
func (w *sessions) latencyWindow(d time.Duration, rbuf, wbuf []int32) ([]int32, []int32) {
	t, objs, ops, pos := w.t, w.objs, w.ops, w.pos
	var n, writes, bad uint64
	start := time.Now()
	last := start
	for last.Sub(start) < d {
		op := ops[pos&(sessionOps-1)]
		pos++
		n++
		s := objs[op>>1]
		if op&1 != 0 {
			s.lock.Sync(t, func() {
				s.a.Add(1)
				s.b.Add(1)
			})
			now := time.Now()
			wbuf = append(wbuf, clampNs(now.Sub(last)))
			last = now
			writes++
			continue
		}
		snap := solero.ReadOnly(s.lock, t, func() snapshot {
			return snapshot{s.a.Load(), s.b.Load(), s.c.Load()}
		})
		now := time.Now()
		rbuf = append(rbuf, clampNs(now.Sub(last)))
		last = now
		if !checkSnapshot(snap, w.tag(op>>1)) {
			bad++
		}
	}
	w.pos = pos
	w.reads += n - writes
	w.writes += writes
	w.attempted += n
	w.bad += bad
	return rbuf, wbuf
}

func runSessions(cfg config, vm *jthread.VM) *report {
	w, setup := newSessions(cfg.seed, vm)
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

func (w *sessions) locks() []*core.Lock {
	out := make([]*core.Lock, len(w.objs))
	for i, s := range w.objs {
		out[i] = s.lock
	}
	return out
}

// finish runs the post-run checks: every payload untorn and tagged, the
// update counters adding up to the updates issued, every lock free and
// thin, and every read accounted for in the locks' stats.
func (w *sessions) finish(rep *report) {
	rep.attempted += w.attempted
	rep.failed += w.bad
	var sum, twinSum, torn uint64
	for i, s := range w.objs {
		if !checkSnapshot(snapshot{s.a.Load(), s.b.Load(), s.c.Load()}, w.tag(uint32(i))) {
			torn++
		}
		sum += uint64(s.a.Load())
		ts := w.twin[i]
		if !checkSnapshot(snapshot{ts.a.Load(), ts.b.Load(), ts.c.Load()}, w.tag(uint32(i))) {
			torn++
		}
		twinSum += uint64(ts.a.Load())
	}
	rep.check(checkNone("sessions with a torn or mistagged payload", torn))
	rep.check(checkWriteTotal("sessions", sum, w.writes))
	rep.check(checkWriteTotal("twin sessions", twinSum, w.twinWrites))
	locks := w.locks()
	rep.check(checkQuiescent(wordsOf(locks...)))
	rep.check(checkCoverage(countsOf(locks...), w.reads))
}

// traced is sessions' traced run: untraced and traced windows alternate,
// then traced windows run alone.
func (w *sessions) traced(cfg config, setup setupResult, rep *report) {
	epoch := time.Now()
	warm := w.soleroWindow(pairWindow)
	tr := newTracer(epoch, 1, "worker", samplePeriod(warm.rate()*cfg.seconds, 2, spanCapacity), spanCapacity)
	var opSeq uint64
	tracedWindow := func(d time.Duration) window {
		t, objs, ops, pos := w.t, w.objs, w.ops, w.pos
		var n, writes, bad uint64
		start := time.Now()
		for {
			for i := 0; i < 64; i++ {
				op := ops[pos&(sessionOps-1)]
				pos++
				id := opSeq
				opSeq++
				s := objs[op>>1]
				sampled := tr.sampled(id)
				if op&1 != 0 {
					writes++
					if !sampled {
						s.lock.Sync(t, func() {
							s.a.Add(1)
							s.b.Add(1)
						})
						continue
					}
					root := tr.begin(spanSync, -1, id)
					s.lock.Sync(t, func() {
						b := tr.begin(spanBodyWrite, root, id)
						s.a.Add(1)
						s.b.Add(1)
						tr.end(b)
					})
					tr.end(root)
					continue
				}
				var snap snapshot
				if sampled {
					root := tr.begin(spanReadOnly, -1, id)
					snap = solero.ReadOnly(s.lock, t, func() snapshot {
						b := tr.begin(spanBodyRead, root, id)
						sn := snapshot{s.a.Load(), s.b.Load(), s.c.Load()}
						tr.end(b)
						return sn
					})
					tr.end(root)
				} else {
					snap = solero.ReadOnly(s.lock, t, func() snapshot {
						return snapshot{s.a.Load(), s.b.Load(), s.c.Load()}
					})
				}
				if !checkSnapshot(snap, w.tag(op>>1)) {
					bad++
				}
			}
			n += 64
			if el := time.Since(start); el >= d {
				w.pos = pos
				w.reads += n - writes
				w.writes += writes
				w.attempted += n
				w.bad += bad
				return window{n, el}
			}
		}
	}
	locks := w.locks()
	before, reads0, writes0 := countsOf(locks...), w.reads, w.writes
	var readLat, writeLat latencies
	rbuf := make([]int32, 0, 1<<20)
	wbuf := make([]int32, 0, 1<<18)
	untraced, traced := rounds((1-layerShare)*cfg.seconds, w.soleroWindow, tracedWindow, func(d time.Duration) {
		rbuf, wbuf = w.latencyWindow(d, rbuf[:0], wbuf[:0])
		readLat.add(rbuf)
		writeLat.add(wbuf)
	})
	for end := time.Now().Add(time.Duration(layerShare * cfg.seconds * float64(time.Second))); time.Now().Before(end); {
		tracedWindow(pairWindow)
	}
	in := layerInputs{
		spans: summarize(tr), counts: countsOf(locks...).sub(before),
		reads: w.reads - reads0, writes: w.writes - writes0,
		untraced: untraced, traced: traced, readLat: &readLat, writeLat: &writeLat, setup: setup,
		ladder: runLadder(w.t), bytesPerLock: bytesPerLock(),
	}
	setLayers(rep, in)
	rep.check(writeChrome(cfg.traceOut, map[string]any{"workload": cfg.workload, "seed": cfg.seed, "env": envOf(cfg)}, tr))
}
