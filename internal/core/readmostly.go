package core

import (
	"time"

	"repro/internal/history"
	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
	"repro/internal/trace"
)

// errUpgradeRestart is the internal unwind signal raised when an in-place
// upgrade fails: the lock has been acquired the slow way (Figure 17's
// solero_slow_enter arm) and the section must re-execute holding it.
type upgradeRestart struct{}

var errUpgradeRestart any = upgradeRestart{}

// Section is the handle a read-mostly critical section uses to announce
// writes (§5). The JIT's read-mostly codegen calls BeforeWrite ahead of
// every heap store or side effect; hand-written sections must do the same.
type Section struct {
	l *Lock
	t *jthread.Thread
	// v is the speculative snapshot; 0 when the section runs holding the
	// lock from the start.
	v uint64
	// holding is true once the thread owns the lock for this section
	// (entered holding, upgraded in place, or re-executed after a failed
	// upgrade).
	holding bool
	// upgraded is true when this section acquired the lock mid-flight
	// and must release it on the way out.
	upgraded bool
	// framePopped tracks whether the speculative frame was already
	// retired (it must be, on upgrade, or checkpoints would abort a
	// thread that now legitimately owns the lock).
	framePopped bool
}

// Holding reports whether the section currently owns the lock (writes are
// safe without further ado).
func (s *Section) Holding() bool { return s.holding }

// Upgraded reports whether this section acquired the lock mid-flight.
func (s *Section) Upgraded() bool { return s.upgraded }

// BeforeWrite makes the section safe to write shared state, following
// Figure 17: if the section is speculative, it tries to CAS the saved lock
// value to an owned word — succeeding proves no writer intervened since
// entry, so every read so far is consistent and execution continues
// holding the lock. If the CAS fails, the lock is acquired the slow way
// and the section unwinds to re-execute from the top while holding.
func (s *Section) BeforeWrite() {
	if s.holding {
		return
	}
	l, t := s.l, s.t
	l.cfg.Sched.Point(t.ID(), sched.PUpgrade)
	if l.word.CompareAndSwap(s.v, lockword.SoleroOwned(t.ID(), 0)) {
		l.saved = s.v
		s.holding, s.upgraded = true, true
		s.popFrame()
		// The speculative attempt ends here, as an upgrade.
		sp := l.st.stripeFor(t)
		sp.inc(cElisionAttempts)
		sp.inc(cUpgrades)
		l.cfg.Tracer.Record(trace.EvUpgrade, t.ID(), s.v)
		// An upgrade both acquires the lock and proves the reads so
		// far: it is an Acquire for the counter-pairing oracle plus
		// the upgrade marker itself.
		l.cfg.History.Record(history.Acquire, t.ID(), s.v)
		l.cfg.History.Record(history.Upgrade, t.ID(), s.v)
		l.cfg.Model.ChargeAtomic()
		l.cfg.Model.Charge(l.cfg.Plan.WriteAcquire)
		return
	}
	if l.HeldBy(t) {
		// Figure 17's hold_lock(obj): the thread already owns the
		// lock (reentrant structure); writing is safe.
		s.holding = true
		s.popFrame()
		return
	}
	// Not holding and the snapshot is stale: acquire for real, then
	// unwind so the section re-executes holding the lock. The
	// speculative attempt ends here, as a restart.
	sp := l.st.stripeFor(t)
	sp.inc(cElisionAttempts)
	sp.inc(cUpgradeFailures)
	l.Lock(t)
	s.holding = true
	s.popFrame()
	panic(errUpgradeRestart)
}

func (s *Section) popFrame() {
	if !s.framePopped {
		s.t.PopSpec()
		s.framePopped = true
	}
}

type specOutcome uint8

const (
	specOK specOutcome = iota
	specFailed
	specFailedAsync
	specRestartHolding
)

// ReadMostly executes fn as a read-mostly critical section (§5): it runs
// elided like a read-only section, but fn may write shared state after
// calling BeforeWrite on its Section. The common no-write execution never
// touches the lock variable; an execution that writes upgrades in place.
func (l *Lock) ReadMostly(t *jthread.Thread, fn func(*Section)) {
	// Same sampled CS-duration gate as ReadOnly: thread-local, write-free.
	if m := l.cfg.Metrics; m != nil && t.SampleTick(m.CSSampleMask()) {
		start := time.Now()
		defer m.EndCS(t.StripeIndex(), start)
	}
	if l.cfg.DisableElision {
		l.Lock(t)
		l.runLockedSection(t, fn)
		return
	}
	v := l.word.Load()
	l.cfg.Sched.Point(t.ID(), sched.PReadEnter)
	holding := false
	if !lockword.SoleroFree(v) {
		v, holding = l.slowReadEnter(t)
	}
	failures := 0
	for {
		if holding {
			// Entered holding (reentrant or fat): writes are safe
			// throughout.
			l.cfg.History.Record(history.ReadFallback, t.ID(), l.word.Load())
			s := &Section{l: l, t: t, holding: true, framePopped: true}
			l.runHolding(t, func() { fn(s) })
			return
		}
		s := &Section{l: l, t: t, v: v}
		outcome := l.runSpecUpgradable(t, v, fn, s)
		switch outcome {
		case specOK:
			if s.upgraded {
				// The section wrote: release the upgraded hold,
				// publishing a fresh counter.
				l.Unlock(t)
				return
			}
			l.cfg.Model.Charge(l.cfg.Plan.ReadExit)
			l.cfg.Sched.Point(t.ID(), sched.PReadValidate)
			if l.word.Load() == v || l.slowReadExit(t, v) {
				l.st.stripeFor(t).inc(cElisionSuccesses)
				l.cfg.History.Record(history.ReadSuccess, t.ID(), v)
				return
			}
		case specRestartHolding:
			// BeforeWrite acquired the lock after a failed upgrade;
			// re-execute holding it.
			l.st.stripeFor(t).inc(cFallbacks)
			l.runLockedSection(t, fn)
			return
		case specFailed, specFailedAsync:
			// fall through to the retry/fallback accounting
		}
		sp := l.st.stripeFor(t)
		sp.inc(cElisionAttempts)
		sp.inc(cElisionFailures)
		l.recordAbort(t, outcome == specFailedAsync)
		failures++
		if failures >= l.cfg.MaxElisionFailures {
			sp.inc(cFallbacks)
			l.cfg.Sched.Point(t.ID(), sched.PReadFallback)
			l.cfg.History.Record(history.ReadFallback, t.ID(), v)
			l.Lock(t)
			l.runLockedSection(t, fn)
			return
		}
		v = l.word.Load()
		if !lockword.SoleroFree(v) {
			v, holding = l.slowReadEnter(t)
		}
	}
}

// runLockedSection runs fn as a section that already holds l, releasing
// the lock on the way out, panics included. Keeping the defer here keeps
// it out of ReadMostly's retry loop.
func (l *Lock) runLockedSection(t *jthread.Thread, fn func(*Section)) {
	defer l.Unlock(t)
	fn(&Section{l: l, t: t, holding: true, framePopped: true})
}

// runSpecUpgradable is runSpeculative extended with the upgrade protocol:
// it distinguishes the restart-holding unwind, and treats faults raised
// while holding (post-upgrade) as genuine, releasing the lock before
// propagating them. Like runSpeculative it uses one deferred call that
// reaches recover only when fn did not return. An upgrade or restart
// already counted its attempt in BeforeWrite, so a fault raised after it
// belongs to a held section, not to an elision attempt.
func (l *Lock) runSpecUpgradable(t *jthread.Thread, v uint64, fn func(*Section), s *Section) (outcome specOutcome) {
	l.cfg.Model.Charge(l.cfg.Plan.ReadEnter)
	t.PushSpec(&l.word, v)
	returned := false
	defer func() {
		s.popFrame()
		if returned {
			return
		}
		r := recover()
		if r == nil {
			return
		}
		if r == errUpgradeRestart {
			outcome = specRestartHolding
			return
		}
		sp := l.st.stripeFor(t)
		if s.holding {
			// Reads are consistent once holding; the fault is
			// genuine. Release and rethrow.
			if !s.upgraded {
				sp.inc(cElisionAttempts)
				sp.inc(cGenuineFaults)
			}
			l.Unlock(t)
			panic(r)
		}
		if ire, isIRE := r.(*jthread.InconsistentReadError); isIRE {
			if ire.Word == &l.word {
				sp.inc(cAsyncAborts)
				outcome = specFailedAsync
				return
			}
			sp.inc(cElisionAttempts)
			sp.inc(cElisionFailures)
			l.recordAbort(t, true)
			panic(r)
		}
		if l.word.Load() != v {
			sp.inc(cSuppressedFaults)
			outcome = specFailed
			return
		}
		sp.inc(cElisionAttempts)
		sp.inc(cGenuineFaults)
		panic(r)
	}()
	fn(s)
	returned = true
	return specOK
}
