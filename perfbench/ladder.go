package main

import (
	"sync"
	"time"

	"repro/internal/backend"
	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/seqlock"
	"repro/solero"
)

// The layer ladder: one empty-body call per rung, each rung one layer
// further from the lock word, with sync.RWMutex and sync.Mutex beside them.
// When a read-path change moves ops_vs_rwmutex, the ladder names the rung
// it moved.
const (
	ladderCalls = 20000 // calls per timed batch
	ladderReps  = 15    // batches per rung; the median batch is reported
)

type rung struct {
	name string
	run  func(n int)
}

func ladderRungs(t *jthread.Thread) []rung {
	var sl seqlock.SeqLock
	plain := core.New(nil)
	proven := core.New(nil)
	info := core.NewSectionRegistry(false, 0, nil).Seed("perfbench.empty", core.ProofElidable, true, 1)
	be, err := backend.New("solero", backend.Options{})
	if err != nil {
		panic(err) // "solero" is always registered
	}
	pub := solero.NewLock(nil)
	var rw sync.RWMutex
	var mu sync.Mutex
	empty := func() {}
	return []rung{
		{"seqlock.read_ns", func(n int) {
			for i := 0; i < n; i++ {
				sl.Read(empty)
			}
		}},
		{"core.readonly_empty_ns", func(n int) {
			for i := 0; i < n; i++ {
				plain.ReadOnly(t, empty)
			}
		}},
		{"core.section_proven_ns", func(n int) {
			for i := 0; i < n; i++ {
				proven.ReadOnlySection(t, info, empty)
			}
		}},
		{"core.sync_empty_ns", func(n int) {
			for i := 0; i < n; i++ {
				plain.Sync(t, empty)
			}
		}},
		{"backend.read_sync_ns", func(n int) {
			for i := 0; i < n; i++ {
				be.ReadSync(t, empty)
			}
		}},
		{"solero.readonly_ns", func(n int) {
			for i := 0; i < n; i++ {
				solero.ReadOnly(pub, t, func() int { return i })
			}
		}},
		{"sync.rwmutex_read_ns", func(n int) {
			for i := 0; i < n; i++ {
				rw.RLock()
				rw.RUnlock()
			}
		}},
		{"sync.mutex_ns", func(n int) {
			for i := 0; i < n; i++ {
				mu.Lock()
				mu.Unlock()
			}
		}},
	}
}

// runLadder batch-times every rung on one goroutine, rungs interleaved
// round-robin so drift hits them alike, and returns each rung's median
// ns per call.
func runLadder(t *jthread.Thread) map[string]float64 {
	rungs := ladderRungs(t)
	ns := make([][]float64, len(rungs))
	for rep := 0; rep < ladderReps; rep++ {
		for i, r := range rungs {
			start := time.Now()
			r.run(ladderCalls)
			ns[i] = append(ns[i], float64(time.Since(start))/ladderCalls)
		}
	}
	out := make(map[string]float64, len(rungs))
	for i, r := range rungs {
		out[r.name] = median(ns[i])
	}
	return out
}
