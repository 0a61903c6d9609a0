package vmlock

import (
	"sync"
	"testing"
	"time"

	"repro/internal/jthread"
	"repro/internal/lockword"
	"repro/internal/sched"
)

// TestLateFLCOnInflatedWordDoesNotLivelock pins, via schedule injection,
// the classic fat-mode race where a contender's FLC announcement lands on
// a word another thread has just inflated: the late contender loads the
// held word and parks at flc-set; the holder releases; the inflator
// saturates its recursion bits, inflating in place; the late contender's
// Or(FLC) then tags the inflated word and it blocks entering the monitor
// the inflator owns. With deflation off nothing clears the stray bit, so
// an exact fatEnter compare never matches and the contender re-enters and
// leaves the monitor forever.
func TestLateFLCOnInflatedWordDoesNotLivelock(t *testing.T) {
	vm := jthread.NewVM()
	holder := vm.Attach("holder")
	late := vm.Attach("late")
	inflator := vm.Attach("inflator")

	s := sched.NewScheduler(sched.Phased([]sched.Phase{
		{TID: holder.ID(), Until: sched.PBody},
		{TID: late.ID(), Until: sched.PFLCSet},
		{TID: holder.ID(), Until: sched.RunToDone},
		{TID: inflator.ID(), Until: sched.PBody},
		{TID: late.ID(), Until: sched.RunToDone}, // blocks in fatEnter
		{TID: inflator.ID(), Until: sched.RunToDone},
	}), 20000)
	h := s.Hooks()
	l := New(&Config{
		Tier1: 1, Tier2: 1, Tier3: 1,
		FLCTimeout: 200 * time.Microsecond,
		Sched:      h,
	})
	for _, th := range []*jthread.Thread{holder, late, inflator} {
		s.Register(th.ID())
	}

	var tagged uint64
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
	run(holder, func() {
		l.Lock(holder)
		h.Point(holder.ID(), sched.PBody)
		l.Unlock(holder)
	})
	run(late, func() {
		l.Lock(late)
		l.Unlock(late)
	})
	run(inflator, func() {
		n := 0
		for !l.Inflated() {
			l.Lock(inflator)
			n++
		}
		h.Point(inflator.ID(), sched.PBody)
		tagged = l.Word()
		for ; n > 0; n-- {
			l.Unlock(inflator)
		}
	})

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		tr := s.Trace()
		t.Fatalf("late contender livelocked in fat mode: word %#x, fat enters %d\n%s",
			l.Word(), l.Stats().FatEnters.Load(), sched.FormatTrace(tr[:min(len(tr), 40)]))
	}
	if !lockword.Inflated(tagged) || !lockword.FLC(tagged) {
		t.Fatalf("schedule missed the race: word under the inflator was %#x", tagged)
	}
	if s.Aborted() {
		t.Fatalf("schedule aborted: %s", sched.FormatTrace(s.Trace()))
	}
	if got := l.Stats().FatEnters.Load(); got != 1 {
		t.Fatalf("fat enters = %d, want 1 (the late contender's)", got)
	}
}
