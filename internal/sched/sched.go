// Package sched is a deterministic schedule-injection kernel for the real
// SOLERO implementation. internal/core is instrumented with named schedule
// points; in production a lock's hooks pointer is nil and every point is a
// nil-check no-op on the fast paths. Under test, the hooks route into a
// Scheduler that serializes the participating threads: at most one
// registered thread runs between schedule points, and at each point a
// pluggable Strategy — a seeded random walk, a PCT-style priority
// scheduler, a fixed priority list, or a recorded-decision replayer —
// picks which thread runs next. Every run records its decision sequence,
// so a failing schedule replays deterministically and can be
// auto-minimized (see Minimize) to a short point-trace.
//
// Real blocking operations (parking on the fat monitor, condition waits)
// cannot be suspended at a point without deadlocking the kernel: the
// blocked thread would hold the scheduling token while the only thread
// able to unblock it waits for that token. Those sites are instead wrapped
// in Hooks.Block, which surrenders the token for the duration of the real
// blocking call and re-enters the scheduler afterwards. Decisions stay
// deterministic for a fixed seed as long as the set of runnable threads
// evolves identically; timed parks bound the residual real-time
// nondeterminism.
package sched

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// wakeEpoch counts wakeup-capable events (monitor broadcasts, condition
// notifies) process-wide. The scheduler compares it against the value seen
// at the last grant: a decision taken while a thread is stuck only pays
// the quiescence window when something actually happened that could have
// woken it. internal/monitor bumps it; with no scheduler in play the bump
// is a single uncontended atomic add on paths that already maintain
// atomic stats.
var wakeEpoch atomic.Uint64

// NoteWake records a wakeup-capable event (a broadcast or notify).
func NoteWake() { wakeEpoch.Add(1) }

// Point names one instrumented schedule point in internal/core (plus PBody,
// which harnesses inject inside critical-section bodies). The names appear
// in failing point-traces, so they follow the paper's protocol vocabulary.
type Point uint8

// Schedule points.
const (
	PNone         Point = iota
	PAcquireCAS         // writing path: about to CAS the free word
	PAcquired           // writing path: ownership just established
	PRelease            // about to publish the releasing store
	PReadEnter          // read path: entry snapshot loaded, body next
	PReadValidate       // read path: about to perform the validating load
	PReadFallback       // read path: about to fall back to real acquisition
	PSpin               // one iteration of a three-tier contention spin
	PInflate            // about to publish the inflated word
	PDeflate            // fat release that may deflate (blocking region)
	PUpgrade            // read-mostly: about to attempt the upgrade CAS
	PWaitPark           // about to release the lock and park on the wait set
	PWaitWake           // woken from the wait set, about to reacquire
	PNotify             // about to deliver a notification
	PMonitorEnter       // about to block entering the fat monitor
	PFLCPark            // about to park on the FLC bit (blocking region)
	PBody               // harness-injected point inside a section body
	PGatePark           // rwlock: about to park on the state-change gate
	PReadPublish        // bravo: slot published, bias recheck next
	PRevokeScan         // bravo: writer waiting on an occupied reader slot
	PTableBind          // montable: about to bind (or rebind) a table entry
	PTablePin           // montable: about to resolve an observed ticket word
	PTableSweep         // montable: sweeper about to scan one shard
	PTableReclaim       // montable: release path about to try reclamation
	PFLCSet             // about to set the FLC bit on a word seen held
	numPoints
)

var pointNames = [numPoints]string{
	PNone: "start", PAcquireCAS: "acquire-cas", PAcquired: "acquired",
	PRelease: "release", PReadEnter: "read-enter", PReadValidate: "read-validate",
	PReadFallback: "read-fallback", PSpin: "spin", PInflate: "inflate",
	PDeflate: "deflate", PUpgrade: "upgrade", PWaitPark: "wait-park",
	PWaitWake: "wait-wake", PNotify: "notify", PMonitorEnter: "monitor-enter",
	PFLCPark: "flc-park", PBody: "body", PGatePark: "gate-park",
	PReadPublish: "read-publish", PRevokeScan: "revoke-scan",
	PTableBind: "table-bind", PTablePin: "table-pin",
	PTableSweep: "table-sweep", PTableReclaim: "table-reclaim",
	PFLCSet: "flc-set",
}

// String names the point.
func (p Point) String() string {
	if int(p) < len(pointNames) {
		return pointNames[p]
	}
	return fmt.Sprintf("point(%d)", uint8(p))
}

// Hooks is the handle internal/core calls at its schedule points. A nil
// *Hooks is the production configuration: Point returns immediately after
// one predictable nil check and Block degenerates to calling fn, so the
// instrumentation costs nothing measurable (BenchmarkReadOnlyAllocFree
// pins the elided fast path at 0 allocs/op with the hooks compiled in).
type Hooks struct {
	s *Scheduler
}

// Point yields control to the scheduler at schedule point p. Threads not
// registered with the scheduler (and all threads once the scheduler has
// stopped) pass through untouched.
func (h *Hooks) Point(tid uint64, p Point) {
	if h == nil {
		return
	}
	h.s.yield(tid, p)
}

// Block brackets a real blocking operation: the calling thread surrenders
// the scheduling token, runs fn (which may park on a monitor or condition
// queue), then re-enters the scheduler. With nil hooks it just runs fn.
func (h *Hooks) Block(tid uint64, p Point, fn func()) {
	if h == nil {
		fn()
		return
	}
	h.s.block(tid, p, fn)
}

// Step is one recorded schedule-point arrival.
type Step struct {
	TID uint64
	P   Point
}

// Runnable describes one schedulable thread offered to a Strategy.
type Runnable struct {
	TID uint64
	P   Point // the point the thread is parked at
}

// Strategy picks which runnable thread runs next. step is the 1-based
// decision index. Implementations must be deterministic functions of their
// construction parameters and the observed runnable sequences.
type Strategy interface {
	Pick(step int, runnable []Runnable) uint64
}

// thread states.
type tstate uint8

const (
	tsNew     tstate = iota // registered, not yet entered
	tsWaiting               // parked at a schedule point, grantable
	tsRunning               // holds the token
	tsBlocked               // inside a real blocking call (Block region)
	tsDone
)

type tctl struct {
	tid   uint64
	state tstate
	point Point
	gate  chan struct{}
	// blockSeq versions the thread's Block regions so a stale block
	// watchdog cannot mark a thread that already returned.
	blockSeq int
}

// Scheduler serializes registered threads between schedule points.
// Construct with NewScheduler, Register every participating thread id from
// a single goroutine (registration order is the deterministic tiebreak
// order), then have each worker bracket its life with ThreadStart and
// ThreadDone. No thread is granted until every registered thread has
// parked in ThreadStart, so a run's first decision always sees the full
// thread set.
type Scheduler struct {
	mu        sync.Mutex
	strategy  Strategy
	maxSteps  int
	threads   map[uint64]*tctl
	order     []uint64
	started   bool
	stopped   bool
	aborted   bool
	tokenHeld bool
	steps     int
	trace     []Step
	decisions []uint64

	// Determinism machinery for Block regions. A thread entering Block
	// keeps the token while its fn runs; since no other registered thread
	// can run meanwhile, fn completes quickly iff it can complete without
	// help. Only a genuinely dependent call trips the block watchdog
	// (blockTimeout), which surrenders the token — so the fast/stuck
	// classification is semantic, not a timing accident. While any thread
	// is stuck, every decision additionally waits for the blocked set to
	// be quiescent for a full settle window (re-parks restart it), so a
	// stuck thread woken by the previous segment deterministically rejoins
	// the runnable set before the next pick. Both windows vastly exceed
	// the harness's self-resolving park timeouts, which is what keeps
	// schedules replayable across runs and build modes (-race shifts
	// timings).
	settle        time.Duration
	blockTimeout  time.Duration
	blockGen      int  // bumped whenever the blocked set changes
	settlePending bool // a settle timer is in flight
	calm          bool // set transiently while the settle timer dispatches
	// seenWake is the wakeEpoch value at the last grant. A decision taken
	// while a thread is stuck pays the quiescence window only when the
	// epoch moved — i.e. a broadcast or notify actually fired since the
	// last decision; segments that merely spin, read, or CAS cannot
	// change the blocked set and dispatch immediately.
	seenWake uint64
}

// DefaultMaxSteps bounds a run's decision count; past it the scheduler
// opens the gates (all threads free-run) and marks the run aborted, so a
// livelocked schedule cannot hang an exploration episode.
const DefaultMaxSteps = 1 << 20

// NewScheduler creates a scheduler driven by strategy. maxSteps <= 0
// selects DefaultMaxSteps.
func NewScheduler(strategy Strategy, maxSteps int) *Scheduler {
	if maxSteps <= 0 {
		maxSteps = DefaultMaxSteps
	}
	return &Scheduler{
		strategy: strategy,
		maxSteps: maxSteps,
		threads:  make(map[uint64]*tctl),
		// Both windows dominate the harness's self-resolving park
		// timeouts (FLC parks time out at 200µs) by an order of
		// magnitude or more, so classification stays stable even under
		// the race detector's slowdown.
		settle:       time.Millisecond,
		blockTimeout: 5 * time.Millisecond,
	}
}

// Hooks returns the handle to plug into core.Config.Sched.
func (s *Scheduler) Hooks() *Hooks { return &Hooks{s: s} }

// Register adds tid to the schedulable set. Call from one goroutine, in a
// fixed order, before the workers start — the order is the deterministic
// iteration order for strategies.
func (s *Scheduler) Register(tid uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.threads[tid]; ok {
		panic(fmt.Sprintf("sched: thread %d registered twice", tid))
	}
	s.threads[tid] = &tctl{tid: tid, state: tsNew, gate: make(chan struct{}, 1)}
	s.order = append(s.order, tid)
}

// ThreadStart parks the calling worker until the scheduler first grants
// it. Every registered thread must call it exactly once.
func (s *Scheduler) ThreadStart(tid uint64) {
	s.mu.Lock()
	t := s.threads[tid]
	if t == nil {
		panic(fmt.Sprintf("sched: ThreadStart for unregistered thread %d", tid))
	}
	if s.stopped {
		s.mu.Unlock()
		return
	}
	t.state = tsWaiting
	t.point = PNone
	s.dispatchLocked()
	s.mu.Unlock()
	<-t.gate
}

// ThreadDone retires the calling worker and hands the token on.
func (s *Scheduler) ThreadDone(tid uint64) {
	s.mu.Lock()
	if t := s.threads[tid]; t != nil && t.state != tsDone {
		t.state = tsDone
		s.tokenHeld = false
		s.dispatchLocked()
	}
	s.mu.Unlock()
}

// Stop opens the gates: every parked thread is released and all further
// schedule points pass through. Used by watchdogs; a stopped run's trace
// remains readable.
func (s *Scheduler) Stop() {
	s.mu.Lock()
	s.stopLocked()
	s.mu.Unlock()
}

func (s *Scheduler) stopLocked() {
	if s.stopped {
		return
	}
	s.stopped = true
	for _, tid := range s.order {
		t := s.threads[tid]
		if t.state == tsWaiting {
			t.state = tsRunning
			t.gate <- struct{}{}
		}
	}
}

// Steps returns the number of scheduling decisions taken.
func (s *Scheduler) Steps() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.steps
}

// Aborted reports whether the run hit maxSteps and was abandoned.
func (s *Scheduler) Aborted() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.aborted
}

// Trace returns the recorded schedule-point arrivals.
func (s *Scheduler) Trace() []Step {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Step(nil), s.trace...)
}

// Decisions returns the chosen thread id at each decision index — the
// replayable schedule.
func (s *Scheduler) Decisions() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.decisions...)
}

func (s *Scheduler) yield(tid uint64, p Point) {
	s.mu.Lock()
	t := s.threads[tid]
	if t == nil || s.stopped {
		s.mu.Unlock()
		return
	}
	t.state = tsWaiting
	t.point = p
	s.trace = append(s.trace, Step{TID: tid, P: p})
	s.tokenHeld = false
	s.dispatchLocked()
	s.mu.Unlock()
	<-t.gate
}

func (s *Scheduler) block(tid uint64, p Point, fn func()) {
	s.mu.Lock()
	t := s.threads[tid]
	if t == nil || s.stopped {
		s.mu.Unlock()
		fn()
		return
	}
	// Optimistic: keep the token while fn runs. No other registered
	// thread runs meanwhile, so fn finishing before the watchdog proves
	// it did not depend on one — a deterministic classification. The
	// watchdog only fires for genuinely dependent calls, surrendering the
	// token so the thread fn is waiting on can be scheduled.
	t.point = p
	s.trace = append(s.trace, Step{TID: tid, P: p})
	t.blockSeq++
	seq := t.blockSeq
	s.mu.Unlock()

	watchdog := time.AfterFunc(s.blockTimeout, func() {
		s.mu.Lock()
		if t.blockSeq == seq && t.state == tsRunning && !s.stopped {
			t.state = tsBlocked
			s.tokenHeld = false
			s.blockSetChangedLocked()
			s.dispatchLocked()
		}
		s.mu.Unlock()
	})

	fn()

	watchdog.Stop()
	s.mu.Lock()
	t.blockSeq++ // retire the watchdog even if it is about to fire
	if s.stopped {
		t.state = tsRunning
		s.mu.Unlock()
		return
	}
	if t.state == tsBlocked {
		// The watchdog moved the token while fn was stuck; rejoin the
		// schedulable set (restarting any pending settle window).
		t.state = tsWaiting
		s.blockSetChangedLocked()
	} else {
		// Fast path: fn completed holding the token — hand it on like a
		// normal yield.
		t.state = tsWaiting
		s.tokenHeld = false
	}
	s.dispatchLocked()
	s.mu.Unlock()
	<-t.gate
}

// blockSetChangedLocked notes that the blocked set changed: any pending
// settle window restarts, and the next decision taken while a thread is
// still blocked must wait out a fresh one.
func (s *Scheduler) blockSetChangedLocked() {
	s.blockGen++
}

// dispatchLocked grants the token to one waiting thread if it is free.
func (s *Scheduler) dispatchLocked() {
	if s.tokenHeld || s.stopped {
		return
	}
	if !s.started {
		// Hold the first grant until the full registered set has parked
		// in ThreadStart, so decision 1 is taken over all threads.
		for _, tid := range s.order {
			if s.threads[tid].state != tsWaiting {
				return
			}
		}
		s.started = true
	}
	runnable := make([]Runnable, 0, len(s.order))
	blocked := 0
	for _, tid := range s.order {
		t := s.threads[tid]
		if t.state == tsWaiting {
			runnable = append(runnable, Runnable{TID: tid, P: t.point})
		} else if t.state == tsBlocked {
			blocked++
		}
	}
	if len(runnable) == 0 {
		// Everyone is done or inside a real blocking call; a blocked
		// thread will dispatch again when it returns.
		return
	}
	if blocked > 0 && wakeEpoch.Load() != s.seenWake && !s.calm {
		// Quiescence gate: with a stuck thread in play, a broadcast or
		// notify since the last decision may have just unblocked it.
		// Defer every decision until the blocked set has been stable for
		// a full settle window — a woken thread re-parks well inside it,
		// restarting the wait — so whether a thread is in the runnable
		// set never depends on how fast this host resolved the wakeup.
		if !s.settlePending {
			s.settlePending = true
			gen := s.blockGen
			go func() {
				time.Sleep(s.settle)
				s.mu.Lock()
				s.settlePending = false
				if !s.stopped && !s.tokenHeld {
					if gen != s.blockGen {
						// Set changed during the wait: re-arm.
						s.dispatchLocked()
					} else {
						s.calm = true
						s.dispatchLocked()
						s.calm = false
					}
				}
				s.mu.Unlock()
			}()
		}
		return
	}
	s.steps++
	if s.steps > s.maxSteps {
		s.aborted = true
		s.stopLocked()
		return
	}
	pick := s.strategy.Pick(s.steps, runnable)
	t := s.threads[pick]
	if t == nil || t.state != tsWaiting {
		// A strategy returning a non-runnable id falls back to the first
		// runnable thread rather than wedging the run.
		t = s.threads[runnable[0].TID]
		pick = t.tid
	}
	t.state = tsRunning
	s.tokenHeld = true
	s.seenWake = wakeEpoch.Load()
	s.decisions = append(s.decisions, pick)
	t.gate <- struct{}{}
}

// FormatTrace renders a point-trace compactly, collapsing consecutive
// steps of the same thread: "t1:acquire-cas>body>release t2:read-enter…".
func FormatTrace(steps []Step) string {
	if len(steps) == 0 {
		return "(empty trace)"
	}
	var b strings.Builder
	i := 0
	for i < len(steps) {
		j := i
		for j < len(steps) && steps[j].TID == steps[i].TID {
			j++
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%d:", steps[i].TID)
		for k := i; k < j; k++ {
			if k > i {
				b.WriteByte('>')
			}
			b.WriteString(steps[k].P.String())
		}
		i = j
	}
	return b.String()
}

// FormatDecisions renders a decision sequence as the comma list accepted
// by `solerocheck -sched -replay`.
func FormatDecisions(dec []uint64) string {
	parts := make([]string, len(dec))
	for i, d := range dec {
		parts[i] = fmt.Sprintf("%d", d)
	}
	return strings.Join(parts, ",")
}

// ParseDecisions parses FormatDecisions output.
func ParseDecisions(s string) ([]uint64, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("sched: empty decision list")
	}
	parts := strings.Split(s, ",")
	out := make([]uint64, len(parts))
	for i, p := range parts {
		var v uint64
		if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
			return nil, fmt.Errorf("sched: bad decision %q: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}
