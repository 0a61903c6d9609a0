package sched

import "math/rand/v2"

// newRNG builds the deterministic per-run generator. PCG is seeded from
// the printed seed alone, so a seed fully identifies a strategy's decision
// function across runs and hosts.
func newRNG(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}

// Splitmix advances a seed into a stream of derived seeds; exploration
// episode i runs under Splitmix(base + i) so episodes are independent but
// reconstructible from the base seed and the episode index.
func Splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// randomWalk picks uniformly among runnable threads — the baseline
// explorer. Cheap, unbiased, and surprisingly effective at shallow bugs.
type randomWalk struct {
	rng *rand.Rand
}

// RandomWalk returns the seeded uniform random-walk strategy.
func RandomWalk(seed uint64) Strategy {
	return &randomWalk{rng: newRNG(seed)}
}

func (r *randomWalk) Pick(_ int, runnable []Runnable) uint64 {
	return runnable[r.rng.IntN(len(runnable))].TID
}

// pct is the PCT-style priority scheduler (Burckhardt et al., "A
// Randomized Scheduler with Probabilistic Guarantees of Finding Bugs"):
// each thread gets a random priority, the highest-priority runnable thread
// always runs, and at d randomly pre-chosen step indices the currently
// highest runnable thread is demoted below everyone — the d "preemption
// points" that give the algorithm its bug-depth guarantee.
type pct struct {
	rng     *rand.Rand
	prio    map[uint64]int
	nextLow int
	change  map[int]bool
	horizon int
}

// PCT returns a PCT strategy with d priority change points spread over
// horizon steps (horizon <= 0 selects a default sized for harness
// episodes).
func PCT(seed uint64, d, horizon int) Strategy {
	if horizon <= 0 {
		horizon = 4096
	}
	if d < 0 {
		d = 0
	}
	rng := newRNG(seed)
	change := make(map[int]bool, d)
	for len(change) < d {
		change[1+rng.IntN(horizon)] = true
	}
	return &pct{rng: rng, prio: make(map[uint64]int), nextLow: -1, change: change, horizon: horizon}
}

func (p *pct) Pick(step int, runnable []Runnable) uint64 {
	if step > p.horizon {
		// Past the planned horizon every change point has been spent, so a
		// fixed priority order could starve the lock owner behind a
		// timed-park spinner forever. Drain the episode with seeded uniform
		// picks instead — still a deterministic function of the seed.
		return runnable[p.rng.IntN(len(runnable))].TID
	}
	for _, r := range runnable {
		if _, ok := p.prio[r.TID]; !ok {
			// Initial priorities: a random value well above the demotion
			// range, drawn at first sight (registration order is fixed,
			// so this is deterministic per seed).
			p.prio[r.TID] = p.rng.IntN(1 << 20)
		}
	}
	best := runnable[0].TID
	for _, r := range runnable[1:] {
		if p.prio[r.TID] > p.prio[best] {
			best = r.TID
		}
	}
	if p.change[step] {
		// Change point: demote the would-be choice below every priority
		// handed out so far and re-pick.
		p.prio[best] = p.nextLow
		p.nextLow--
		best = runnable[0].TID
		for _, r := range runnable[1:] {
			if p.prio[r.TID] > p.prio[best] {
				best = r.TID
			}
		}
	}
	return best
}

// priorities is a fixed priority list: the earliest listed runnable thread
// always runs. Tests use it to pin an exact interleaving phase by phase
// (a thread leaves the runnable set when it parks in a Block region, which
// is what hands control to the next phase).
type priorities struct {
	rank map[uint64]int
}

// Priorities returns the fixed-priority strategy; earlier arguments run
// first. Unlisted threads rank below all listed ones.
func Priorities(order ...uint64) Strategy {
	rank := make(map[uint64]int, len(order))
	for i, tid := range order {
		rank[tid] = len(order) - i
	}
	return &priorities{rank: rank}
}

func (p *priorities) Pick(_ int, runnable []Runnable) uint64 {
	best := runnable[0].TID
	for _, r := range runnable[1:] {
		if p.rank[r.TID] > p.rank[best] {
			best = r.TID
		}
	}
	return best
}

// RunToDone is an unreachable schedule point: a Phase waiting for it runs
// its thread until the thread leaves the runnable set (ThreadDone or a
// stuck Block region).
const RunToDone = Point(255)

// Phase is one leg of a Phased schedule: run TID until it parks at Until
// (or leaves the runnable set).
type Phase struct {
	TID   uint64
	Until Point
}

type phased struct {
	phases []Phase
	idx    int
	rr     int
}

// Phased pins an exact interleaving as a sequence of phases, then drains
// the run round-robin. It is the point-aware counterpart of Priorities: a
// phase ends when its thread *arrives somewhere specific*, not merely when
// it blocks.
func Phased(phases []Phase) Strategy {
	return &phased{phases: phases}
}

func (s *phased) Pick(_ int, runnable []Runnable) uint64 {
	for s.idx < len(s.phases) {
		ph := s.phases[s.idx]
		present, parked := false, false
		for _, r := range runnable {
			if r.TID == ph.TID {
				present = true
				parked = r.P == ph.Until
			}
		}
		if present && !parked {
			return ph.TID
		}
		s.idx++
	}
	pick := runnable[s.rr%len(runnable)].TID
	s.rr++
	return pick
}

// ReplayStrategy re-executes a recorded decision sequence. When the
// recorded choice is not runnable (the run diverged — real-time blocking
// resolved differently) it counts the divergence and falls back; after
// the recording is exhausted it drains the run round-robin. Both
// fallbacks are deterministic, and round-robin guarantees progress —
// always picking the first runnable thread could starve a lock owner
// behind a timed-park spinner forever.
type ReplayStrategy struct {
	decisions []uint64
	i         int
	rr        int
	Diverged  int
}

// Replay returns a strategy that follows dec.
func Replay(dec []uint64) *ReplayStrategy {
	return &ReplayStrategy{decisions: dec}
}

func (r *ReplayStrategy) Pick(_ int, runnable []Runnable) uint64 {
	if r.i < len(r.decisions) {
		want := r.decisions[r.i]
		r.i++
		for _, run := range runnable {
			if run.TID == want {
				return want
			}
		}
		r.Diverged++
	}
	pick := runnable[r.rr%len(runnable)].TID
	r.rr++
	return pick
}
