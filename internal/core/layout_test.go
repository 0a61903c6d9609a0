package core

import (
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/stats"
)

// TestLockHeaderOneLine checks the one-line Lock header: the whole struct
// is one cache line with the word at offset 0, and the fields every elided
// read loads (cfg, stripes) lie inside that line, so a read touches the
// header line and its own stats stripe and nothing else the lock owns.
func TestLockHeaderOneLine(t *testing.T) {
	var l Lock
	if sz := unsafe.Sizeof(l); sz != stats.CacheLine {
		t.Fatalf("Lock is %d bytes, want %d", sz, stats.CacheLine)
	}
	if off := unsafe.Offsetof(l.word); off != 0 {
		t.Fatalf("word at offset %d, want 0", off)
	}
	for name, end := range map[string]uintptr{
		"cfg":     unsafe.Offsetof(l.cfg) + unsafe.Sizeof(l.cfg),
		"stripes": unsafe.Offsetof(l.stripes) + unsafe.Sizeof(l.stripes),
	} {
		if end > stats.CacheLine {
			t.Errorf("field %s ends at offset %d, past the first %d-byte line", name, end, stats.CacheLine)
		}
	}
}

// TestLockFootprint pins what one lock costs on the heap: the 64-byte
// header, the cold block (24 bytes, allowed up to 32) and the stats
// stripes. It measures the live heap after runtime.GC the way perfbench's
// core.bytes_per_lock does, taking the least of a few rounds so a stray
// allocation elsewhere in the process cannot fail it.
func TestLockFootprint(t *testing.T) {
	const n = 4096
	stripes := stats.DefaultStripeCount()
	limit := float64(stats.CacheLine + 32 + int(unsafe.Sizeof(statStripe{}))*stripes)
	best := -1.0
	for round := 0; round < 3; round++ {
		locks := make([]*Lock, n)
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := range locks {
			locks[i] = New(nil)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		per := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / n
		runtime.KeepAlive(locks)
		if best < 0 || per < best {
			best = per
		}
	}
	t.Logf("%.0f B per lock with %d stripes (limit %.0f)", best, stripes, limit)
	if best > limit {
		t.Fatalf("%.0f B per lock with %d stripes, want <= %.0f", best, stripes, limit)
	}
	if a := testing.AllocsPerRun(100, func() { footprintSink = New(nil) }); a > 3 {
		t.Fatalf("New allocates %.0f times, want <= 3", a)
	}
}

// footprintSink keeps TestLockFootprint's locks on the heap.
var footprintSink *Lock

// TestStatStripePadding checks the stripe type: padded to a multiple of the
// false-sharing range (so adjacent stripes never share a line) without
// dropping any counter slots.
func TestStatStripePadding(t *testing.T) {
	sz := unsafe.Sizeof(statStripe{})
	if sz%stats.FalseSharingRange != 0 {
		t.Fatalf("statStripe is %d bytes, not a multiple of %d", sz, stats.FalseSharingRange)
	}
	raw := unsafe.Sizeof([numCounters]uint64{}) + 8
	if sz < raw {
		t.Fatalf("statStripe %d bytes cannot hold %d bytes of counters", sz, raw)
	}
	if sz >= raw+stats.FalseSharingRange {
		t.Fatalf("statStripe overpadded: %d bytes for %d of payload", sz, raw)
	}
	var ss [2]statStripe
	d := uintptr(unsafe.Pointer(&ss[1])) - uintptr(unsafe.Pointer(&ss[0]))
	if d < stats.FalseSharingRange {
		t.Fatalf("adjacent stripes %d bytes apart, want >= %d", d, stats.FalseSharingRange)
	}
}

// TestCounterKeyTable guards the id/key tables against drift: every id has
// a distinct, non-empty Snapshot key.
func TestCounterKeyTable(t *testing.T) {
	seen := map[string]bool{}
	for id := counterID(0); id < numCounters; id++ {
		k := counterKeys[id]
		if k == "" {
			t.Fatalf("counter id %d has no key", id)
		}
		if seen[k] {
			t.Fatalf("duplicate key %q", k)
		}
		seen[k] = true
	}
}
