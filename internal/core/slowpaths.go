package core

import (
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/trace"
)

// sub atomically subtracts delta from w (recursion-depth unwinds below).
func sub(w *atomic.Uint64, delta uint64) { w.Add(^delta + 1) }

// slowEnter is solero_slow_enter: reentrant acquisition, contention
// management, and fat-mode entry for writing critical sections.
func (l *Lock) slowEnter(t *jthread.Thread, v uint64) {
	l.st.stripeFor(t).inc(cSlowAcquires)
	l.cfg.Tracer.Record(trace.EvAcquireSlow, t.ID(), v)
	if m := l.cfg.Metrics; m != nil {
		start := time.Now()
		defer func() { m.Acquire.Record(t.StripeIndex(), time.Since(start).Nanoseconds()) }()
	}
	tid := t.ID()
	for {
		switch {
		case lockword.Inflated(v):
			if l.cfg.Monitors != nil {
				if l.fatEnterTable(t, v) {
					return
				}
			} else if l.fatEnter(t) {
				return
			}
		case lockword.SoleroHeldBy(v, tid):
			l.st.stripeFor(t).inc(cRecursions)
			if lockword.SoleroRec(v) >= lockword.SoleroRecMax {
				l.inflateAsOwner(t, v, 1)
				return
			}
			l.word.Add(lockword.SoleroRecOne)
			return
		default:
			// Held by another thread, or a stray FLC bit on a free
			// word: spin, then park-and-inflate.
			if l.spinAcquire(t) {
				l.cfg.Model.Charge(l.cfg.Plan.WriteAcquire)
				return
			}
			l.contendAndInflate(t)
			return
		}
		v = l.word.Load()
	}
}

// spinAcquire runs the three-tier loop. It bails out to inflation as soon
// as it observes the inflation or FLC bit (the paper's "(v & 0x3) != 0"
// test in Figure 8); plain held words are spun on. On success the
// pre-acquire word is stored as the local lock variable.
func (l *Lock) spinAcquire(t *jthread.Thread) bool {
	tid := t.ID()
	var spinStart time.Time
	if l.cfg.Metrics != nil {
		spinStart = time.Now()
	}
	defer l.spinDwell(t, spinStart)
	for i := 0; i < l.cfg.Tier3; i++ {
		for j := 0; j < l.cfg.Tier2; j++ {
			l.cfg.Sched.Point(tid, sched.PSpin)
			v := l.word.Load()
			if lockword.SoleroFree(v) {
				if l.word.CompareAndSwap(v, lockword.SoleroOwned(tid, 0)) {
					l.saved = v
					l.st.stripeFor(t).inc(cSpinAcquires)
					l.cfg.History.Record(history.Acquire, tid, v)
					return true
				}
			} else if v&(lockword.InflationBit|lockword.FLCBit) != 0 {
				return false
			}
			spinBackoff(l.cfg.Tier1)
		}
		l.yieldTimed(t)
	}
	return false
}

// contendAndInflate parks on the FLC bit until the flat lock can be
// grabbed, then inflates it, stashing the incremented counter in the
// monitor so deflation publishes a changed word. The caller ends up owning
// the fat lock.
func (l *Lock) contendAndInflate(t *jthread.Thread) {
	if l.cfg.Monitors != nil {
		l.contendAndInflateTable(t)
		return
	}
	tid := t.ID()
	m := l.monitorFor()
	for {
		v := l.word.Load()
		switch {
		case lockword.Inflated(v):
			if l.fatEnter(t) {
				return
			}
		case lockword.SoleroHeld(v):
			// Held: announce contention and park (timed — the FLC
			// bit can be clobbered by a racing fast release). The
			// whole park is a Block region: under schedule injection
			// the token must travel while this thread sleeps, or the
			// releasing thread could never run to wake it. The Or
			// may land on a word another thread inflated since the
			// load; fatEnter ignores FLC on an inflated word.
			l.cfg.Sched.Point(tid, sched.PFLCSet)
			l.word.Or(lockword.FLCBit)
			var parkStart time.Time
			if l.cfg.Metrics != nil {
				parkStart = time.Now()
			}
			l.cfg.Sched.Block(tid, sched.PFLCPark, func() {
				m.RawLock()
				if w := l.word.Load(); lockword.SoleroHeld(w) {
					l.st.stripeFor(t).inc(cFLCWaits)
					m.WaitLocked(l.cfg.FLCTimeout)
				}
				m.RawUnlock()
			})
			if mr := l.cfg.Metrics; mr != nil {
				mr.Park.Record(t.StripeIndex(), time.Since(parkStart).Nanoseconds())
			}
		default:
			// Free, possibly with a stale FLC bit: grab the flat
			// lock (clearing FLC), then publish the inflated word.
			if l.word.CompareAndSwap(v, lockword.SoleroOwned(tid, 0)) {
				l.cfg.History.Record(history.Acquire, tid, v)
				l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
					m.Enter(tid)
					m.RawLock()
					m.SavedCounter = lockword.SoleroNextFree(v)
					m.BroadcastLocked() // other FLC waiters must re-read
					m.RawUnlock()
				})
				l.st.stripeFor(t).inc(cInflations)
				l.cfg.Tracer.Record(trace.EvInflate, tid, v)
				l.cfg.Sched.Point(tid, sched.PInflate)
				l.cfg.History.Record(history.Inflate, tid, lockword.InflatedWord(m.ID()))
				l.word.Store(lockword.InflatedWord(m.ID()))
				l.cfg.Model.Charge(l.cfg.Plan.WriteAcquire)
				return
			}
		}
	}
}

// fatEnter acquires the fat lock; it returns false if the lock deflated
// before the monitor was entered (the caller must then retry).
func (l *Lock) fatEnter(t *jthread.Thread) bool {
	m := l.monitorFor()
	tid := t.ID()
	var parkStart time.Time
	if l.cfg.Metrics != nil {
		parkStart = time.Now()
	}
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() { m.Enter(tid) })
	if mr := l.cfg.Metrics; mr != nil {
		mr.Park.Record(t.StripeIndex(), time.Since(parkStart).Nanoseconds())
	}
	// Mask FLC: a contender's late FLC announcement can tag the inflated
	// word, and an exact compare would then never match (livelock).
	if l.word.Load()&^lockword.FLCBit == lockword.InflatedWord(m.ID()) {
		l.st.stripeFor(t).inc(cFatEnters)
		l.cfg.History.Record(history.Acquire, tid, lockword.InflatedWord(m.ID()))
		l.cfg.Model.Charge(l.cfg.Plan.WriteAcquire)
		return true
	}
	m.Exit(tid)
	return false
}

// inflateAsOwner inflates a flat lock held by t, transferring the
// recursion depth plus extra into the monitor (extra is 1 when the caller
// is in the middle of acquiring one more level — recursion saturation —
// and 0 when the lock is inflated in place, e.g. before waiting).
func (l *Lock) inflateAsOwner(t *jthread.Thread, v uint64, extra uint32) {
	if l.cfg.Monitors != nil {
		l.inflateAsOwnerTable(t, v, extra)
		return
	}
	tid := t.ID()
	m := l.monitorFor()
	l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
		m.Enter(tid)
		m.SetRecursionOwned(tid, uint32(lockword.SoleroRec(v))+extra)
		m.RawLock()
		m.SavedCounter = lockword.SoleroNextFree(l.saved)
		m.BroadcastLocked()
		m.RawUnlock()
	})
	l.st.stripeFor(t).inc(cInflations)
	l.cfg.Tracer.Record(trace.EvInflate, tid, v)
	l.cfg.Sched.Point(tid, sched.PInflate)
	l.cfg.History.Record(history.Inflate, tid, lockword.InflatedWord(m.ID()))
	l.word.Store(lockword.InflatedWord(m.ID()))
}

// slowExit is solero_slow_exit: recursion unwind, contended flat release,
// and fat release with optional deflation.
func (l *Lock) slowExit(t *jthread.Thread, v2 uint64) {
	tid := t.ID()
	switch {
	case lockword.Inflated(v2):
		if l.cfg.Monitors != nil {
			l.fatExitTable(t, v2)
			return
		}
		m := l.monitorFor()
		var deflate func()
		if l.cfg.Deflate {
			deflate = func() {
				l.st.stripeFor(t).inc(cDeflations)
				l.cfg.Tracer.Record(trace.EvDeflate, tid, m.SavedCounter)
				// Runs under the monitor mutex, so no schedule point
				// here; the Block around ExitDeflating covers it.
				l.cfg.History.Record(history.Deflate, tid, m.SavedCounter)
				l.word.Store(m.SavedCounter)
			}
		}
		l.cfg.Sched.Block(tid, sched.PDeflate, func() {
			if released, _ := m.ExitDeflating(tid, deflate); released {
				l.cfg.History.Record(history.Release, tid, v2)
			}
		})
		l.cfg.Tracer.Record(trace.EvRelease, tid, v2)
	case lockword.SoleroHeldBy(v2, tid) && lockword.SoleroRec(v2) > 0:
		sub(&l.word, lockword.SoleroRecOne)
	case lockword.SoleroHeldBy(v2, tid):
		// FLC is set: release under the monitor mutex and wake parked
		// contenders. The release word clears the FLC bit (its low
		// byte is zero), so waiters re-examine the lock.
		w := l.releaseWord(l.saved)
		l.cfg.Sched.Point(tid, sched.PRelease)
		if l.cfg.Monitors != nil {
			l.flcReleaseTable(t, w)
			return
		}
		m := l.monitorFor()
		l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
			m.RawLock()
			l.cfg.History.Record(history.Release, tid, w)
			l.word.Store(w)
			m.BroadcastLocked()
			m.RawUnlock()
		})
	default:
		panic("core: Unlock by non-owner (slow path)")
	}
}

// slowReadEnter is solero_slow_read_enter (Figure 8). It returns the word
// to validate against for a speculative execution, or holding == true when
// the thread now *holds* the lock (reentrant entry or fat-mode entry) and
// the section must run non-speculatively, to be released by slowReadExit.
// (The paper signals the holding case by returning 0, which can never match
// a held or inflated word at validation; Go lets us make the flag explicit
// instead of overloading the counter-0 free word.)
func (l *Lock) slowReadEnter(t *jthread.Thread) (v uint64, holding bool) {
	tid := t.ID()
	var spinStart time.Time
	v = l.word.Load()
	// test_recursion: the thread already holds the flat lock.
	if lockword.SoleroHeldBy(v, tid) {
		l.st.stripeFor(t).inc(cReadRecursions)
		if lockword.SoleroRec(v) >= lockword.SoleroRecMax {
			if m := l.cfg.Metrics; m != nil {
				m.RecordAbort(t.StripeIndex(), metrics.AbortRecursionOverflow)
			}
			l.inflateAsOwner(t, v, 1)
			return 0, true
		}
		l.word.Add(lockword.SoleroRecOne)
		return 0, true
	}
	// Three-tier wait for the word to become elidable.
	if l.cfg.Metrics != nil {
		spinStart = time.Now()
	}
	for i := 0; i < l.cfg.Tier3; i++ {
		for j := 0; j < l.cfg.Tier2; j++ {
			l.cfg.Sched.Point(tid, sched.PSpin)
			v = l.word.Load()
			if lockword.SoleroFree(v) {
				l.spinDwell(t, spinStart)
				return v, false
			}
			if v&(lockword.InflationBit|lockword.FLCBit) != 0 {
				goto inflation
			}
			spinBackoff(l.cfg.Tier1)
		}
		l.yieldTimed(t)
	}
inflation:
	// The lock stayed busy (or is already fat): the elision is preempted —
	// record why (a fat word vs. a writer holding on) — and acquire for real.
	l.spinDwell(t, spinStart)
	if m := l.cfg.Metrics; m != nil {
		m.RecordAbort(t.StripeIndex(), abortCauseFor(v))
	}
	l.contendForRead(t)
	l.st.stripeFor(t).inc(cReadFatEnters)
	return 0, true
}

// contendForRead acquires the lock non-speculatively for a read-only
// section that lost the spin (inflating it, per the paper), leaving the
// calling thread the owner.
func (l *Lock) contendForRead(t *jthread.Thread) {
	for {
		v := l.word.Load()
		if lockword.Inflated(v) {
			if l.cfg.Monitors != nil {
				if l.fatEnterTable(t, v) {
					return
				}
			} else if l.fatEnter(t) {
				return
			}
			continue
		}
		l.contendAndInflate(t)
		return
	}
}

// slowReadExit is solero_slow_read_exit (Figure 9). It returns true when
// the section completed while *holding* the lock (recursion, flat
// ownership, or fat ownership) and the hold has been released; false means
// the speculation failed and the section must be re-executed.
func (l *Lock) slowReadExit(t *jthread.Thread, v uint64) bool {
	tid := t.ID()
	w := l.word.Load()
	switch {
	case lockword.SoleroHeldBy(w, tid) && lockword.SoleroRec(w) > 0:
		sub(&l.word, lockword.SoleroRecOne)
		return true
	case lockword.SoleroHeldBy(w, tid):
		// Flat ownership at depth zero: release, publishing a new
		// counter derived from the local lock variable, then handle
		// any contention flagged meanwhile (the paper's check_flc).
		rel := l.releaseWord(l.saved)
		l.cfg.Sched.Point(tid, sched.PRelease)
		if lockword.FLC(w) {
			if l.cfg.Monitors != nil {
				l.flcReleaseTable(t, rel)
				return true
			}
			m := l.monitorFor()
			l.cfg.Sched.Block(tid, sched.PMonitorEnter, func() {
				m.RawLock()
				l.cfg.History.Record(history.Release, tid, rel)
				l.word.Store(rel)
				m.BroadcastLocked()
				m.RawUnlock()
			})
		} else {
			l.cfg.History.Record(history.Release, tid, rel)
			l.word.Store(rel)
		}
		return true
	case lockword.Inflated(w) && l.heldFatAny(t, w):
		if l.cfg.Monitors != nil {
			l.fatExitTable(t, w)
			return true
		}
		m := l.monitorFor()
		var deflate func()
		if l.cfg.Deflate {
			deflate = func() {
				l.st.stripeFor(t).inc(cDeflations)
				l.cfg.History.Record(history.Deflate, tid, m.SavedCounter)
				l.word.Store(m.SavedCounter)
			}
		}
		l.cfg.Sched.Block(tid, sched.PDeflate, func() {
			if released, _ := m.ExitDeflating(tid, deflate); released {
				l.cfg.History.Record(history.Release, tid, w)
			}
		})
		return true
	case w == v:
		// Late success: a changed word changing *back* is impossible
		// (counters only advance), so this is the plain "unchanged"
		// case re-checked under the slow path.
		return true
	default:
		return false
	}
}

func (l *Lock) heldFat(tid uint64) bool {
	m := l.mon.Load()
	return m != nil && m.HeldBy(tid)
}

// heldFatAny is heldFat for whichever fat backend the lock uses.
func (l *Lock) heldFatAny(t *jthread.Thread, w uint64) bool {
	if l.cfg.Monitors != nil {
		return l.heldFatTable(t, w)
	}
	return l.heldFat(t.ID())
}

// spinBackoff wastes roughly n loop iterations (the tier-1 backoff).
//
//go:noinline
func spinBackoff(n int) int {
	x := 0
	for i := 0; i < n; i++ {
		x += i
	}
	return x
}
