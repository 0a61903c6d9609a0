package core

import (
	"testing"

	"repro/internal/jthread"
)

// The counting rule (sharded.go): an elision attempt is counted when it
// ends, a success only as a success, every other ending as a stored attempt
// plus its own outcome. These tests pin the rule's two consequences: the
// endings add up exactly, and a successful read writes one stats slot.

// mustPanic runs fn and returns what it panicked with (nil if it returned).
func mustPanic(fn func()) (r any) {
	defer func() { r = recover() }()
	fn()
	return nil
}

// bump runs one complete writing section on l as w.
func bump(l *Lock, w *jthread.Thread) {
	l.Lock(w)
	l.Unlock(w)
}

// assertEndingsAddUp checks the counting invariant on a quiescent lock and
// that every read view — Counter.Load, Snapshot, StripeSnapshot,
// StripeTotals — reports the same derived values.
func assertEndingsAddUp(t *testing.T, name string, l *Lock) {
	t.Helper()
	st := l.Stats()
	ended := st.ElisionSuccesses.Load() + st.ElisionFailures.Load() + st.GenuineFaults.Load() +
		st.Upgrades.Load() + st.UpgradeFailures.Load()
	if got := st.ElisionAttempts.Load(); got != ended {
		t.Errorf("%s: ElisionAttempts = %d, endings add up to %d: %v", name, got, ended, st.Snapshot())
	}
	snap := st.Snapshot()
	stripeSum := make(map[string]uint64, len(snap))
	var totals uint64
	for i := 0; i < st.NumStripes(); i++ {
		for k, v := range st.StripeSnapshot(i) {
			stripeSum[k] += v
		}
	}
	for _, n := range st.StripeTotals() {
		totals += n
	}
	var snapTotal uint64
	for id := counterID(0); id < numCounters; id++ {
		k := counterKeys[id]
		c := Counter{stripes: st.stripes, id: id}
		if c.Load() != snap[k] || stripeSum[k] != snap[k] {
			t.Errorf("%s: %s: Counter.Load %d, Snapshot %d, stripe sum %d",
				name, k, c.Load(), snap[k], stripeSum[k])
		}
		snapTotal += snap[k]
	}
	if totals != snapTotal {
		t.Errorf("%s: StripeTotals sum to %d, Snapshot to %d", name, totals, snapTotal)
	}
}

// TestCountingInvariantEveryEnding drives each way an elision attempt can
// end, one lock per ending so a miscount names its ending, and checks both
// the invariant and the exact per-ending counts. The default config falls
// back after one failure, so a failed attempt is followed by a held run,
// not a second attempt.
func TestCountingInvariantEveryEnding(t *testing.T) {
	type want struct{ attempts, successes, failures, genuine, upgrades, upgradeFailures uint64 }
	lean := NewSectionRegistry(false, 0, nil).Seed("counting.lean", ProofElidable, true, 1)
	cases := []struct {
		name string
		run  func(l *Lock, r, w *jthread.Thread)
		want want
	}{
		{"readonly-success", func(l *Lock, r, _ *jthread.Thread) {
			for i := 0; i < 5; i++ {
				l.ReadOnly(r, func() {})
			}
		}, want{attempts: 5, successes: 5}},
		{"readonly-changed-word", func(l *Lock, r, w *jthread.Thread) {
			// Default MaxElisionFailures is 1: one failure, then the
			// fallback runs holding the lock.
			l.ReadOnly(r, func() {
				if !l.HeldBy(r) {
					bump(l, w)
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"lean-success", func(l *Lock, r, _ *jthread.Thread) {
			for i := 0; i < 3; i++ {
				l.ReadOnlySection(r, lean, func() {})
			}
		}, want{attempts: 3, successes: 3}},
		{"lean-changed-word", func(l *Lock, r, w *jthread.Thread) {
			l.ReadOnlySection(r, lean, func() {
				if !l.HeldBy(r) {
					bump(l, w)
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"suppressed-fault", func(l *Lock, r, w *jthread.Thread) {
			runs := 0
			l.ReadOnly(r, func() {
				runs++
				if runs == 1 {
					bump(l, w)
					panic("fault induced by inconsistent reads")
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"async-abort", func(l *Lock, r, w *jthread.Thread) {
			runs := 0
			l.ReadOnly(r, func() {
				runs++
				if runs == 1 {
					bump(l, w)
					r.Poke()
					r.Checkpoint()
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"genuine-fault", func(l *Lock, r, _ *jthread.Thread) {
			mustPanic(func() { l.ReadOnly(r, func() { panic("genuine") }) })
		}, want{attempts: 1, genuine: 1}},
		{"readmostly-success", func(l *Lock, r, _ *jthread.Thread) {
			l.ReadMostly(r, func(*Section) {})
		}, want{attempts: 1, successes: 1}},
		{"readmostly-changed-word", func(l *Lock, r, w *jthread.Thread) {
			l.ReadMostly(r, func(s *Section) {
				if !s.Holding() {
					bump(l, w)
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"readmostly-upgrade", func(l *Lock, r, _ *jthread.Thread) {
			l.ReadMostly(r, func(s *Section) { s.BeforeWrite() })
		}, want{attempts: 1, upgrades: 1}},
		{"readmostly-upgrade-then-fault", func(l *Lock, r, _ *jthread.Thread) {
			// The attempt ended at the upgrade; the fault belongs to
			// the held section that followed.
			mustPanic(func() {
				l.ReadMostly(r, func(s *Section) {
					s.BeforeWrite()
					panic("after upgrade")
				})
			})
		}, want{attempts: 1, upgrades: 1}},
		{"readmostly-restart", func(l *Lock, r, w *jthread.Thread) {
			runs := 0
			l.ReadMostly(r, func(s *Section) {
				runs++
				if runs == 1 {
					bump(l, w)
				}
				s.BeforeWrite()
			})
		}, want{attempts: 1, upgradeFailures: 1}},
		{"readmostly-async-abort", func(l *Lock, r, w *jthread.Thread) {
			runs := 0
			l.ReadMostly(r, func(*Section) {
				runs++
				if runs == 1 {
					bump(l, w)
					r.Poke()
					r.Checkpoint()
				}
			})
		}, want{attempts: 1, failures: 1}},
		{"readmostly-genuine-fault", func(l *Lock, r, _ *jthread.Thread) {
			mustPanic(func() { l.ReadMostly(r, func(*Section) { panic("genuine") }) })
		}, want{attempts: 1, genuine: 1}},
	}
	for _, tc := range cases {
		vm := jthread.NewVM()
		r, w := vm.Attach("reader"), vm.Attach("writer")
		l := New(nil)
		tc.run(l, r, w)
		if r.SpecDepth() != 0 {
			t.Errorf("%s: %d speculative frames leaked", tc.name, r.SpecDepth())
		}
		st := l.Stats()
		got := want{
			st.ElisionAttempts.Load(), st.ElisionSuccesses.Load(), st.ElisionFailures.Load(),
			st.GenuineFaults.Load(), st.Upgrades.Load(), st.UpgradeFailures.Load(),
		}
		if got != tc.want {
			t.Errorf("%s: got %+v, want %+v", tc.name, got, tc.want)
		}
		assertEndingsAddUp(t, tc.name, l)
	}
}

// TestCountingInvariantNestedForeignAbort aborts an inner section from a
// checkpoint that finds the *outer* lock's snapshot stale. The inner
// attempt ends by rethrowing the foreign InconsistentReadError (one stored
// attempt, one failure on the inner lock); the outer section then falls
// back to holding its lock, and the inner section nested in that fallback
// speculates again and succeeds.
func TestCountingInvariantNestedForeignAbort(t *testing.T) {
	for _, mostly := range []bool{false, true} {
		vm := jthread.NewVM()
		r, w := vm.Attach("reader"), vm.Attach("writer")
		outer, inner := New(nil), New(nil)
		runs := 0
		body := func() {
			runs++
			if runs == 1 {
				bump(outer, w)
				r.Poke()
				r.Checkpoint()
			}
		}
		outer.ReadOnly(r, func() {
			if mostly {
				inner.ReadMostly(r, func(*Section) { body() })
			} else {
				inner.ReadOnly(r, body)
			}
		})
		if runs != 2 || r.SpecDepth() != 0 {
			t.Fatalf("mostly=%v: runs %d, frames %d", mostly, runs, r.SpecDepth())
		}
		for name, c := range map[string]struct {
			l                             *Lock
			attempts, successes, failures uint64
			async                         uint64
		}{
			"outer": {outer, 1, 0, 1, 1},
			"inner": {inner, 2, 1, 1, 0},
		} {
			st := c.l.Stats()
			if st.ElisionAttempts.Load() != c.attempts || st.ElisionSuccesses.Load() != c.successes ||
				st.ElisionFailures.Load() != c.failures || st.AsyncAborts.Load() != c.async {
				t.Errorf("mostly=%v %s: %v", mostly, name, st.Snapshot())
			}
			assertEndingsAddUp(t, name, c.l)
		}
	}
}

// rawStripeSum sums every stored stats slot of l, derived views aside.
func rawStripeSum(l *Lock) uint64 {
	var sum uint64
	for i := range l.stripes {
		sp := &l.stripes[i]
		for id := range sp.c {
			sum += sp.c[id].Load()
		}
		sum += uint64(sp.adAttempts.Load()) + uint64(sp.adFailures.Load())
	}
	return sum
}

// TestSuccessfulReadWritesOneSlot pins the write count structurally rather
// than by timing: on a quiescent lock, N successful elided reads raise the
// sum of the raw stripe slots by exactly N, through ReadOnly, the lean
// proven path, and a no-write ReadMostly alike.
func TestSuccessfulReadWritesOneSlot(t *testing.T) {
	const n = 1000
	lean := NewSectionRegistry(false, 0, nil).Seed("counting.lean", ProofElidable, true, 1)
	for name, read := range map[string]func(l *Lock, th *jthread.Thread){
		"ReadOnly":        func(l *Lock, th *jthread.Thread) { l.ReadOnly(th, func() {}) },
		"ReadOnlySection": func(l *Lock, th *jthread.Thread) { l.ReadOnlySection(th, lean, func() {}) },
		"ReadMostly":      func(l *Lock, th *jthread.Thread) { l.ReadMostly(th, func(*Section) {}) },
	} {
		vm := jthread.NewVM()
		th := vm.Attach("reader")
		l := New(nil)
		before := rawStripeSum(l)
		for i := 0; i < n; i++ {
			read(l, th)
		}
		if got := rawStripeSum(l) - before; got != n {
			t.Errorf("%s: %d successful reads wrote %d stats slots, want %d", name, n, got, n)
		}
		if got := l.Stats().ElisionAttempts.Load(); got != n {
			t.Errorf("%s: ElisionAttempts = %d, want %d", name, got, n)
		}
	}
}
