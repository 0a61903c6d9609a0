package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
	"repro/internal/trace"
)

// ReadOnly executes fn as a read-only critical section, eliding all writes
// to the lock variable on the fast path (Figure 7). fn must not write
// shared state — the JIT analysis (internal/jit/analysis) or the
// @SoleroReadOnly annotation establishes that for compiled code; hand-
// written callers carry the same obligation.
//
// Speculative executions can observe mutually inconsistent reads; fn must
// therefore tolerate being re-executed, and any panic it raises while the
// lock word has changed is suppressed and turned into a retry (§3.3). A
// panic raised while the word is unchanged is genuine and propagates.
// Long-running fn bodies should call t.Checkpoint() in loops (compiled code
// gets these inserted at back-edges) so asynchronous validation can break
// inconsistency-induced infinite loops.
//
// After MaxElisionFailures failed speculations, the section falls back to
// real lock acquisition, which bounds starvation.
func (l *Lock) ReadOnly(t *jthread.Thread, fn func()) {
	// Sampled CS-duration timing: the gate is one predicted branch (nil
	// registry) or a thread-local counter test, so metrics add no shared
	// write to the fast path; only the selected 1/period executions pay
	// for a timestamp and a striped histogram record.
	if m := l.cfg.Metrics; m != nil && t.SampleTick(m.CSSampleMask()) {
		start := time.Now()
		defer m.EndCS(t.StripeIndex(), start)
	}
	if l.cfg.DisableElision || l.adaptiveSkip(t) {
		// Unelided-SOLERO (Figure 10), or an adaptive backoff window:
		// the read section pays the full writing protocol.
		l.Sync(t, fn)
		return
	}
	l.readOnlyImpl(t, fn, l.cfg.MaxElisionFailures, false)
}

// readOnlyImpl is the elision loop of Figure 7 shared by ReadOnly and the
// proof-carrying ReadOnlySection. maxFailures bounds failed speculations
// before the real-acquisition fallback; lean selects the recovery-free
// speculation path (no speculative frame, no panic handler) that statically
// proven fault-free sections may use. It reports whether the *final*
// execution of fn was a successful speculation — false when the section
// ultimately ran holding the lock (reentrant entry, fat-mode entry, or
// fallback), which is the signal the dynamic classification probes record.
//
// The loop holds no defer (the fallback runs through Sync): a defer in a
// loop is heap-allocated and makes every call pay for the defer machinery.
// A successful speculation writes one stats slot, because attempts are
// counted when they end (sharded.go).
func (l *Lock) readOnlyImpl(t *jthread.Thread, fn func(), maxFailures int, lean bool) bool {
	v := l.word.Load()
	l.cfg.Sched.Point(t.ID(), sched.PReadEnter)
	holding := false
	if !lockword.SoleroFree(v) {
		v, holding = l.slowReadEnter(t)
	}
	failures := 0
	for {
		if holding {
			// The thread holds the lock (reentrant entry or
			// fat-mode entry): run non-speculatively.
			l.cfg.History.Record(history.ReadFallback, t.ID(), l.word.Load())
			l.runHolding(t, fn)
			return false
		}
		var ok, async bool
		if lean {
			ok = l.runSpeculativeLean(fn)
		} else {
			ok, async = l.runSpeculative(t, v, fn)
		}
		if ok {
			l.cfg.Model.Charge(l.cfg.Plan.ReadExit)
			l.cfg.Sched.Point(t.ID(), sched.PReadValidate)
			if l.word.Load() == v || l.slowReadExit(t, v) {
				l.st.stripeFor(t).inc(cElisionSuccesses)
				l.cfg.Tracer.Record(trace.EvElideSuccess, t.ID(), v)
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				l.adaptiveRecord(t, false)
				return true
			}
		}
		sp := l.st.stripeFor(t)
		sp.inc(cElisionAttempts)
		sp.inc(cElisionFailures)
		l.cfg.Tracer.Record(trace.EvElideFailure, t.ID(), v)
		l.recordAbort(t, async)
		l.adaptiveRecord(t, true)
		failures++
		if failures >= maxFailures {
			// Fallback (Figure 7's solero_slow_enter arm): run the
			// section holding the lock.
			sp.inc(cFallbacks)
			l.cfg.Tracer.Record(trace.EvFallback, t.ID(), v)
			l.cfg.Sched.Point(t.ID(), sched.PReadFallback)
			l.cfg.History.Record(history.ReadFallback, t.ID(), v)
			l.Sync(t, fn)
			return false
		}
		v = l.word.Load()
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
	}
}

// ReadOnlyValue runs fn as a read-only critical section of l and returns
// its result; a convenience wrapper over (*Lock).ReadOnly for lookup-style
// sections. fn may run more than once; only the final (consistent)
// execution's result is returned.
func ReadOnlyValue[T any](l *Lock, t *jthread.Thread, fn func() T) T {
	var out T
	l.ReadOnly(t, func() { out = fn() })
	return out
}

// runHolding executes fn while the thread holds the lock (the v == 0 case),
// releasing through slowReadExit even if fn panics — the conventional
// "release then throw" behavior of a synchronized block.
func (l *Lock) runHolding(t *jthread.Thread, fn func()) {
	defer func() {
		if !l.slowReadExit(t, 0) {
			panic("core: failed to release a held lock at read exit")
		}
	}()
	fn()
}

// runSpeculativeLean runs fn speculatively with none of the §3.3 recovery
// machinery: no speculative frame (asynchronous checkpoints cannot abort
// it) and no panic handler. Sound only for sections the static analysis
// proved recovery-free — unable to fault (no indexing, division, calls, or
// deeper-than-one-hop dereferences) and unable to loop (an inconsistent
// snapshot cannot spin without a checkpoint to break it). For those the
// word-unchanged validation in readOnlyImpl is the entire protocol. A
// panic escaping a lean section (which its proof rules out) propagates
// uncounted.
func (l *Lock) runSpeculativeLean(fn func()) bool {
	l.cfg.Model.Charge(l.cfg.Plan.ReadEnter)
	fn()
	return true
}

// runSpeculative runs fn with the speculative-read recovery machinery of
// §3.3 armed: a speculative frame for asynchronous checkpoint validation,
// and a catch-all handler that classifies any fault as inconsistent
// (suppress and retry) or genuine (rethrow) by re-validating the lock word.
// It returns ok == false when the section must be retried; async
// distinguishes an asynchronous checkpoint abort from a word-change fault
// (the abort-taxonomy split the failure arm records). Charges the ReadEnter
// fence — on a real weak machine the entry fence is what makes the
// validation sound, see internal/memmodel.
//
// One deferred call does both jobs: it always pops the frame, and reaches
// recover only when fn did not return, so a normal return pays for an
// open-coded defer and a flag test. Endings that leave by panic (genuine
// fault, foreign abort) count their attempt here; the retry endings are
// counted by the caller's failure arm.
func (l *Lock) runSpeculative(t *jthread.Thread, v uint64, fn func()) (ok, async bool) {
	l.cfg.Model.Charge(l.cfg.Plan.ReadEnter)
	t.PushSpec(&l.word, v)
	returned := false
	defer func() {
		t.PopSpec()
		if returned {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		sp := l.st.stripeFor(t)
		if ire, isIRE := r.(*jthread.InconsistentReadError); isIRE {
			if ire.Word == &l.word {
				// An asynchronous checkpoint aborted our
				// speculation: retry.
				sp.inc(cAsyncAborts)
				async = true
				return
			}
			// An enclosing section's speculation is stale: this
			// attempt fails with it, and the enclosing handler
			// deals with the rest.
			sp.inc(cElisionAttempts)
			sp.inc(cElisionFailures)
			l.recordAbort(t, true)
			panic(r)
		}
		// A fault escaped fn — the analogue of a runtime exception
		// escaping the synchronized block. If the lock word changed,
		// the reads may have been inconsistent and the fault is
		// suppressed; otherwise it is genuine.
		if l.word.Load() != v {
			sp.inc(cSuppressedFaults)
			return
		}
		sp.inc(cElisionAttempts)
		sp.inc(cGenuineFaults)
		panic(r)
	}()
	fn()
	returned = true
	return true, false
}
