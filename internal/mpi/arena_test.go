package mpi

import (
	"math"
	"testing"
)

// resetArena empties the arena, so a test starts from and leaves no
// buffers behind.
func resetArena(t *testing.T) {
	empty := func() {
		arena.mu.Lock()
		clear(arena.free[:])
		arena.bytes = 0
		arena.mu.Unlock()
	}
	empty()
	t.Cleanup(empty)
}

func TestArenaRecyclesBySizeClass(t *testing.T) {
	resetArena(t)
	a := GetFloats(100)
	if len(a) != 100 || cap(a) != 128 {
		t.Fatalf("GetFloats(100): len %d cap %d, want 100 and the class size 128", len(a), cap(a))
	}
	PutFloats(a)
	b := GetFloats(65) // same class
	if &b[0] != &a[0] || len(b) != 65 {
		t.Fatalf("GetFloats(65) after a put of capacity 128: len %d, same storage %v", len(b), &b[0] == &a[0])
	}
	if c := GetFloats(65); &c[0] == &a[0] {
		t.Fatal("one buffer handed out twice")
	}

	// A capacity that is not a power of two files under the class below
	// it, so it is only handed out for a size it holds.
	odd := make([]float64, 0, 200)
	PutFloats(odd)
	if c := GetFloats(200); cap(c) == 200 {
		t.Fatal("a buffer of capacity 200 was filed under the 256 class")
	}
	if c := GetFloats(128); &c[:1][0] != &odd[:1][0] {
		t.Fatal("a buffer of capacity 200 was not handed out for 128 floats")
	}

	if n := len(GetFloats(0)); n != 0 {
		t.Fatalf("GetFloats(0) has length %d", n)
	}
	PutFloats(nil) // nothing to keep
}

func TestArenaPoisonsUnderRace(t *testing.T) {
	resetArena(t)
	a := GetFloats(16)
	for i := range a {
		a[i] = float64(i)
	}
	PutFloats(a[:3]) // the whole capacity goes back, not only the length
	for i, x := range a[:cap(a)] {
		if math.IsNaN(x) != poisonRecycled {
			t.Fatalf("float %d of a returned buffer is %v (poisoning on: %v)", i, x, poisonRecycled)
		}
	}
}

func TestArenaRetentionIsBounded(t *testing.T) {
	resetArena(t)
	// One buffer of a sixteenth of the bound, returned over and over (only
	// the accounting is under test, and the arena is reset before anything
	// else can be handed the buffer twice).
	buf := make([]float64, arenaMaxBytes/8/16)
	for i := 0; i < 18; i++ {
		PutFloats(buf)
		arena.mu.Lock()
		held := arena.bytes
		arena.mu.Unlock()
		if want := (i%16 + 1) * 8 * cap(buf); held != want || held > arenaMaxBytes {
			t.Fatalf("after %d puts the arena holds %d B, want %d B (full at 16, then it starts over; bound %d B)",
				i+1, held, want, arenaMaxBytes)
		}
	}
}
