package simulate

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// checkSlab asserts the slab's bookkeeping: every slot is either live,
// named by exactly one key and holding the event pushed with that key's seq,
// or free, parked past the heap's end and zeroed.
func checkSlab(t *testing.T, h *eventHeap, idOf map[int]int) {
	t.Helper()
	if cap(h.keys) < len(h.slab) {
		t.Fatalf("keys capacity %d cannot park %d slots", cap(h.keys), len(h.slab))
	}
	seen := make([]bool, len(h.slab))
	for _, k := range h.keys {
		if seen[k.slot] {
			t.Fatalf("slot %d held by two keys", k.slot)
		}
		seen[k.slot] = true
		if got := h.slab[k.slot].retries; got != idOf[k.seq] {
			t.Fatalf("slot %d holds event %d, key seq %d wants %d", k.slot, got, k.seq, idOf[k.seq])
		}
	}
	for _, k := range h.keys[len(h.keys):len(h.slab)] {
		if seen[k.slot] {
			t.Fatalf("free list hands out slot %d, which is live or already free", k.slot)
		}
		seen[k.slot] = true
		if h.slab[k.slot] != (event{}) {
			t.Fatalf("free slot %d not zeroed: %+v", k.slot, h.slab[k.slot])
		}
	}
}

// TestEventHeapMatchesSortedReference interleaves random pushes and pops,
// with many equal timestamps and constant slot reuse, and requires every
// pop to return the (at, seq)-least pending event.
func TestEventHeapMatchesSortedReference(t *testing.T) {
	type pending struct {
		at      time.Duration
		seq, id int
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var h eventHeap
		var ref []pending
		idOf := map[int]int{}
		seq, id := 0, 0
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Intn(100) < 55 {
				// Timestamps from a small range make equal-at ties common,
				// so seq must break them.
				at := time.Duration(rng.Intn(8)) * time.Millisecond
				id++
				h.push(event{at: at, retries: id, node: &Node{ID: id}}, seq)
				ref = append(ref, pending{at, seq, id})
				idOf[seq] = id
				seq += 1 + rng.Intn(3)
			} else {
				slices.SortFunc(ref, func(a, b pending) int {
					if a.at != b.at {
						return int(a.at - b.at)
					}
					return a.seq - b.seq
				})
				want := ref[0]
				ref = ref[1:]
				if h.nextAt() != want.at {
					t.Fatalf("seed %d op %d: nextAt %v, want %v", seed, op, h.nextAt(), want.at)
				}
				ev := h.pop()
				if ev.at != want.at || ev.retries != want.id || ev.node.ID != want.id {
					t.Fatalf("seed %d op %d: popped (at %v, id %d), want (at %v, id %d)",
						seed, op, ev.at, ev.retries, want.at, want.id)
				}
			}
			if h.len() != len(ref) {
				t.Fatalf("seed %d op %d: len %d, want %d", seed, op, h.len(), len(ref))
			}
			checkSlab(t, &h, idOf)
		}
	}
}

// BenchmarkEventHeap measures one pop and one push on a heap holding about
// replay-1m's average of 38 pending events.
func BenchmarkEventHeap(b *testing.B) {
	const size = 38
	rng := rand.New(rand.NewSource(1))
	var h eventHeap
	seq := 0
	for ; seq < size; seq++ {
		h.push(event{at: time.Duration(rng.Intn(1000)) * time.Millisecond}, seq)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		ev.at += time.Duration(rng.Intn(1000)) * time.Millisecond
		h.push(ev, seq)
		seq++
	}
}
