package core

import (
	"sync"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/metrics"
	"repro/internal/sched"
)

// assertAbortCounts checks the full taxonomy in one shot, so a test failure
// shows any cause that leaked, not just the one asserted.
func assertAbortCounts(t *testing.T, reg *metrics.Registry, want map[metrics.AbortCause]uint64) {
	t.Helper()
	for c := metrics.AbortCause(0); c < metrics.NumAbortCauses; c++ {
		if got := reg.AbortCount(c); got != want[c] {
			t.Errorf("abort %s = %d, want %d", c, got, want[c])
		}
	}
}

// TestAbortWriterRacedExactlyOnce forces, via schedule injection, the
// canonical elision failure: the reader snapshots a free word, a complete
// writing section runs inside its speculation window, and validation fails.
// The taxonomy must record exactly one writer-raced abort — not zero, not
// one per retry bookkeeping site.
func TestAbortWriterRacedExactlyOnce(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")

	strat := sched.Phased([]sched.Phase{
		{TID: reader.ID(), Until: sched.PReadEnter}, // snapshot taken, body not yet run
		{TID: writer.ID(), Until: sched.RunToDone},  // a full writing section races past
		{TID: reader.ID(), Until: sched.RunToDone},  // validate → fail → abort → fallback
	})
	s := sched.NewScheduler(strat, 0)
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Sched:              s.Hooks(),
		Metrics:            reg,
	})
	s.Register(reader.ID())
	s.Register(writer.ID())
	guard := time.AfterFunc(30*time.Second, s.Stop)
	defer guard.Stop()

	shared := 0
	var wg sync.WaitGroup
	run := func(th *jthread.Thread, body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ThreadStart(th.ID())
			body()
			s.ThreadDone(th.ID())
		}()
	}
	got := -1
	run(reader, func() {
		l.ReadOnly(reader, func() { got = shared })
	})
	run(writer, func() {
		l.Sync(writer, func() { shared = 42 })
	})
	wg.Wait()

	if s.Aborted() {
		t.Fatalf("schedule aborted: %s", sched.FormatTrace(s.Trace()))
	}
	if got != 42 {
		t.Fatalf("reader observed %d; the fallback should see the write", got)
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortWriterRaced: 1,
	})
	if f := l.Stats().ElisionFailures.Load(); f != 1 {
		t.Fatalf("elision failures = %d, want 1 (abort count must match)", f)
	}
}

// TestAbortLockBitSetExactlyOnce pins the other validation failure: the
// reader validates while the writer still *holds* the lock (parked just
// before its releasing store), so the observed word has the lock bit set.
func TestAbortLockBitSetExactlyOnce(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")

	strat := sched.Phased([]sched.Phase{
		{TID: reader.ID(), Until: sched.PReadEnter},    // snapshot a free word
		{TID: writer.ID(), Until: sched.PRelease},      // acquire, park before releasing
		{TID: reader.ID(), Until: sched.PReadFallback}, // validate against a held word
		{TID: writer.ID(), Until: sched.RunToDone},     // publish the release
		{TID: reader.ID(), Until: sched.RunToDone},     // fallback acquires the free lock
	})
	s := sched.NewScheduler(strat, 0)
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Sched:              s.Hooks(),
		Metrics:            reg,
	})
	s.Register(reader.ID())
	s.Register(writer.ID())
	guard := time.AfterFunc(30*time.Second, s.Stop)
	defer guard.Stop()

	var wg sync.WaitGroup
	run := func(th *jthread.Thread, body func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.ThreadStart(th.ID())
			body()
			s.ThreadDone(th.ID())
		}()
	}
	run(reader, func() {
		l.ReadOnly(reader, func() {})
	})
	run(writer, func() {
		l.Sync(writer, func() {})
	})
	wg.Wait()

	if s.Aborted() {
		t.Fatalf("schedule aborted: %s", sched.FormatTrace(s.Trace()))
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortLockBitSet: 1,
	})
}

// TestAbortAsyncCause drives an asynchronous checkpoint abort from inside
// the section body — a writing section completes mid-speculation, the
// thread is poked, and the next checkpoint unwinds with an
// InconsistentReadError — and checks it is classified async-abort, not
// writer-raced.
func TestAbortAsyncCause(t *testing.T) {
	vm := jthread.NewVM()
	reader := vm.Attach("reader")
	writer := vm.Attach("writer")
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 2,
		Metrics:            reg,
	})

	first := true
	l.ReadOnly(reader, func() {
		if first {
			first = false
			l.Lock(writer)
			l.Unlock(writer)
			reader.Poke()
			reader.Checkpoint() // validates the stale frame and unwinds
		}
	})

	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortAsync: 1,
	})
	if a := l.Stats().AsyncAborts.Load(); a != 1 {
		t.Fatalf("async aborts = %d, want 1", a)
	}
}

// TestAbortRecursionOverflowAndInflated covers the two "never attempted"
// causes: saturating the flat recursion bits on a reentrant read entry
// forces inflation (recursion-overflow), and — with deflation disabled —
// every later read entry finds a fat word (inflated).
func TestAbortRecursionOverflowAndInflated(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("owner")
	reg := metrics.New(2)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		Deflate:            false,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Metrics:            reg,
	})

	// Saturate the flat recursion field: depth 32 is rec == SoleroRecMax.
	const depth = 32
	for i := 0; i < depth; i++ {
		l.Lock(th)
	}
	ran := false
	l.ReadOnly(th, func() { ran = true })
	if !ran {
		t.Fatalf("read section did not run")
	}
	if !l.Inflated() {
		t.Fatalf("recursion saturation should have inflated the lock")
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortRecursionOverflow: 1,
	})
	for i := 0; i < depth; i++ {
		l.Unlock(th)
	}

	// Deflation is off, so the word stays fat and elision is impossible.
	if !l.Inflated() {
		t.Fatalf("lock deflated with Deflate disabled")
	}
	l.ReadOnly(th, func() {})
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{
		metrics.AbortRecursionOverflow: 1,
		metrics.AbortInflated:          1,
	})
}

// TestDwellHistogramsPopulate checks the contention-tier histograms fill in
// under forced contention: a held lock sends a writer through the spin tiers
// and an acquire-latency sample is taken for every slow acquire.
func TestDwellHistogramsPopulate(t *testing.T) {
	vm := jthread.NewVM()
	a := vm.Attach("a")
	b := vm.Attach("b")
	reg := metrics.New(4)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Metrics:            reg,
	})

	l.Lock(a)
	done := make(chan struct{})
	go func() {
		defer close(done)
		l.Lock(b) // spins, then parks on the FLC bit / monitor
		l.Unlock(b)
	}()
	time.Sleep(20 * time.Millisecond)
	l.Unlock(a)
	<-done

	if s := reg.Acquire.Snapshot(); s.Count == 0 {
		t.Fatalf("no acquire-latency samples under contention")
	}
	if s := reg.Spin.Snapshot(); s.Count == 0 {
		t.Fatalf("no spin-dwell samples under contention")
	}
	// The contender outlives the spin tiers (the owner sleeps), so it must
	// have parked at least once.
	if s := reg.Park.Snapshot(); s.Count == 0 {
		t.Fatalf("no park-dwell samples under contention")
	}
}

// TestCSDurationSampling checks the success-path sampler: with the period
// forced to 1 every read-only section contributes one duration sample, and
// the abort taxonomy stays empty on uncontended success.
func TestCSDurationSampling(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("t")
	reg := metrics.New(2)
	reg.SetSamplePeriod(1)
	l := New(&Config{
		Tier1: 8, Tier2: 4, Tier3: 2,
		FLCTimeout:         200 * time.Microsecond,
		MaxElisionFailures: 1,
		Metrics:            reg,
	})
	const n = 100
	for i := 0; i < n; i++ {
		l.ReadOnly(th, func() {})
	}
	if s := reg.CSDuration.Snapshot(); s.Count != n {
		t.Fatalf("cs duration samples = %d, want %d", s.Count, n)
	}
	assertAbortCounts(t, reg, map[metrics.AbortCause]uint64{})
}
