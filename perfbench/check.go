package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/lockword"
)

// The correctness checks behind correct_ops_share and the post-run checks.
// Each is a pure function of results the workload collected, so the tests
// can feed it hand-made wrong results.

// checkLookup: a read-hot Get must return the value preloaded for its key.
func checkLookup(got int64, ok bool, want int64) bool { return ok && got == want }

// treeValue tags a TreeMap value with its key: the key in the high bits and
// a per-key write version in the low 24.
func treeValue(key int64, version uint32) int64 { return key<<24 | int64(version&(1<<24-1)) }

// checkTreeValue: a tree-paced Get must find the key, with a value tagged
// by that key.
func checkTreeValue(key, got int64, ok bool) bool { return ok && got>>24 == key }

// snapshot is a session's payload as one read section saw it.
type snapshot struct{ a, b, c int64 }

// checkSnapshot: every session write bumps a and b inside one section, so
// a validated snapshot with a != b is a torn read that escaped validation;
// c is the session's constant owner tag.
func checkSnapshot(s snapshot, tag int64) bool { return s.a == s.b && s.c == tag }

// lockCounts is the subset of core.Stats the checks and per-layer metrics
// read, summed over a workload's locks.
type lockCounts struct {
	attempts, successes, fallbacks uint64
	readFatEnters, readRecursions  uint64
	inflations, slowAcquires       uint64
}

func countsOf(locks ...*core.Lock) lockCounts {
	var c lockCounts
	for _, l := range locks {
		st := l.Stats()
		c.attempts += st.ElisionAttempts.Load()
		c.successes += st.ElisionSuccesses.Load()
		c.fallbacks += st.Fallbacks.Load()
		c.readFatEnters += st.ReadFatEnters.Load()
		c.readRecursions += st.ReadRecursions.Load()
		c.inflations += st.Inflations.Load()
		c.slowAcquires += st.SlowAcquires.Load()
	}
	return c
}

func (c lockCounts) sub(o lockCounts) lockCounts {
	return lockCounts{
		attempts: c.attempts - o.attempts, successes: c.successes - o.successes,
		fallbacks: c.fallbacks - o.fallbacks, readFatEnters: c.readFatEnters - o.readFatEnters,
		readRecursions: c.readRecursions - o.readRecursions, inflations: c.inflations - o.inflations,
		slowAcquires: c.slowAcquires - o.slowAcquires,
	}
}

// checkCoverage: every read issued enters its lock through the protocol,
// so it is counted as a speculative attempt, or — when it found the lock
// fat or already held — as a fat or reentrant read entry.
func checkCoverage(c lockCounts, reads uint64) error {
	if got := c.attempts + c.readFatEnters + c.readRecursions; got < reads {
		return fmt.Errorf("lock stats count %d read entries (%d elision attempts), but %d reads were issued", got, c.attempts, reads)
	}
	return nil
}

// checkQuiescent: once every goroutine has stopped, no lock word may be
// held or inflated.
func checkQuiescent(words []uint64) error {
	for i, w := range words {
		if lockword.Inflated(w) {
			return fmt.Errorf("lock %d is still inflated after quiescence (word %#x)", i, w)
		}
		if !lockword.SoleroFree(w) {
			return fmt.Errorf("lock %d is not free after quiescence (word %#x)", i, w)
		}
	}
	return nil
}

func wordsOf(locks ...*core.Lock) []uint64 {
	out := make([]uint64, len(locks))
	for i, l := range locks {
		out[i] = l.Word()
	}
	return out
}

// checkSize: a workload's maps never gain or lose keys.
func checkSize(what string, got, want int) error {
	if got != want {
		return fmt.Errorf("%s holds %d entries after the run, want %d", what, got, want)
	}
	return nil
}

// checkNone: a count of bad items found after the run must be zero.
func checkNone(what string, n uint64) error {
	if n != 0 {
		return fmt.Errorf("%d %s after the run", n, what)
	}
	return nil
}

// checkWriteTotal: the per-object write counters must add up to the writes
// issued — a lost or doubled update shows here.
func checkWriteTotal(what string, counted, issued uint64) error {
	if counted != issued {
		return fmt.Errorf("%s counts %d writes, but %d were issued", what, counted, issued)
	}
	return nil
}
