package main

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/jthread"
	"repro/internal/lockword"
)

// Each correctness check must reject a hand-made wrong result: a seeded
// protocol bug is too rare to show up in a short randomised run, so the
// checks are tested directly.

func TestCheckLookup(t *testing.T) {
	if !checkLookup(7, true, 7) {
		t.Error("the preloaded value was rejected")
	}
	if checkLookup(8, true, 7) {
		t.Error("a wrong value passed")
	}
	if checkLookup(0, false, 0) {
		t.Error("a missing key passed")
	}
}

func TestCheckTreeValue(t *testing.T) {
	if !checkTreeValue(42, treeValue(42, 9), true) {
		t.Error("a value tagged by its key was rejected")
	}
	if checkTreeValue(42, treeValue(43, 9), true) {
		t.Error("a value tagged by another key passed")
	}
	if checkTreeValue(42, 0, false) {
		t.Error("a missing key passed")
	}
	if got := treeValue(42, 1<<24+3); got != treeValue(42, 3) {
		t.Errorf("versions must wrap inside the low 24 bits: %#x", got)
	}
}

func TestCheckSnapshot(t *testing.T) {
	if !checkSnapshot(snapshot{5, 5, 99}, 99) {
		t.Error("a consistent snapshot was rejected")
	}
	if checkSnapshot(snapshot{6, 5, 99}, 99) {
		t.Error("a torn snapshot (a != b) passed")
	}
	if checkSnapshot(snapshot{5, 5, 98}, 99) {
		t.Error("a snapshot of another session passed")
	}
}

func TestCheckCoverage(t *testing.T) {
	if err := checkCoverage(lockCounts{attempts: 10}, 10); err != nil {
		t.Error(err)
	}
	if err := checkCoverage(lockCounts{attempts: 7, readFatEnters: 2, readRecursions: 1}, 10); err != nil {
		t.Errorf("fat and reentrant read entries must count: %v", err)
	}
	if err := checkCoverage(lockCounts{attempts: 9}, 10); err == nil {
		t.Error("stats missing a read passed")
	}
}

func TestCheckQuiescent(t *testing.T) {
	if err := checkQuiescent([]uint64{0, lockword.SoleroNextFree(0)}); err != nil {
		t.Errorf("free words rejected: %v", err)
	}
	if err := checkQuiescent([]uint64{0, lockword.InflatedWord(3)}); err == nil || !strings.Contains(err.Error(), "inflated") {
		t.Errorf("an inflated word passed: %v", err)
	}
	if err := checkQuiescent([]uint64{lockword.SoleroOwned(1, 0)}); err == nil {
		t.Error("a held word passed")
	}

	// The same on a real lock left held.
	vm := jthread.NewVM()
	th := vm.Attach("t")
	l := core.New(nil)
	l.Lock(th)
	if err := checkQuiescent(wordsOf(l)); err == nil {
		t.Error("a held lock passed")
	}
	l.Unlock(th)
	if err := checkQuiescent(wordsOf(l)); err != nil {
		t.Error(err)
	}
}

func TestCheckCounts(t *testing.T) {
	if checkSize("m", 1024, 1024) != nil || checkSize("m", 1023, 1024) == nil {
		t.Error("checkSize must accept only the preloaded size")
	}
	if checkWriteTotal("s", 5, 5) != nil || checkWriteTotal("s", 4, 5) == nil || checkWriteTotal("s", 6, 5) == nil {
		t.Error("checkWriteTotal must accept only the issued count")
	}
	if checkNone("torn payloads", 0) != nil || checkNone("torn payloads", 1) == nil {
		t.Error("checkNone must accept only zero")
	}
}

func TestCountsOfCountsEveryRead(t *testing.T) {
	vm := jthread.NewVM()
	th := vm.Attach("t")
	l := core.New(nil)
	for i := 0; i < 100; i++ {
		l.ReadOnly(th, func() {})
	}
	l.Sync(th, func() {})
	c := countsOf(l)
	if err := checkCoverage(c, 100); err != nil {
		t.Error(err)
	}
	if c.successes != 100 || c.slowAcquires != 0 {
		t.Errorf("counts %+v, want 100 successes and no slow acquire", c)
	}
	if d := countsOf(l).sub(c); d != (lockCounts{}) {
		t.Errorf("delta of unchanged stats = %+v", d)
	}
}
