package noc

import (
	"math/rand"
	"testing"
)

// pickPriorityScan is the closure-driven priority arbiter the mask form
// replaced: a full rotation from the pointer, granting the first requester
// of the highest priority.
func (a *roundRobin) pickPriorityScan(req func(i int) bool, prio func(i int) int) int {
	best := -1
	bestPrio := 0
	for k := 0; k < a.n; k++ {
		i := (a.next + k) % a.n
		if !req(i) {
			continue
		}
		if p := prio(i); best == -1 || p > bestPrio {
			best, bestPrio = i, p
		}
	}
	if best >= 0 {
		a.next = (best + 1) % a.n
	}
	return best
}

// TestMaskArbitersMatchScan checks pickMask and pickPriorityMask against
// the closure scans on random request sets, densities, priorities and
// pointers, for requester counts spanning one to three bitset words.
func TestMaskArbitersMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 160; n++ {
		req := make(bitset, bitsetWords(n))
		prio := make([]int, n)
		for trial := 0; trial < 60; trial++ {
			req.reset()
			density := rng.Float64()
			for i := 0; i < n; i++ {
				if rng.Float64() < density {
					req.set(i)
				}
				prio[i] = rng.Intn(3)
			}
			in := func(i int) bool { return req.has(i) }
			pr := func(i int) int { return prio[i] }
			start := rng.Intn(n)

			scan, mask := &roundRobin{n: n, next: start}, &roundRobin{n: n, next: start}
			if want, got := scan.pick(in), mask.pickMask(req); got != want || mask.next != scan.next {
				t.Fatalf("n=%d next=%d: pickMask = %d (next %d), scan = %d (next %d)",
					n, start, got, mask.next, want, scan.next)
			}
			scan, mask = &roundRobin{n: n, next: start}, &roundRobin{n: n, next: start}
			if want, got := scan.pickPriorityScan(in, pr), mask.pickPriorityMask(req, prio); got != want || mask.next != scan.next {
				t.Fatalf("n=%d next=%d: pickPriorityMask = %d (next %d), scan = %d (next %d)",
					n, start, got, mask.next, want, scan.next)
			}
		}
	}
}

func TestBitsetNextFrom(t *testing.T) {
	b := make(bitset, 3)
	members := []int{0, 5, 63, 64, 127, 150, 191}
	for _, i := range members {
		b.set(i)
	}
	var got []int
	for i := b.nextFrom(0); i >= 0; i = b.nextFrom(i + 1) {
		got = append(got, i)
	}
	if len(got) != len(members) {
		t.Fatalf("iterated %v, want %v", got, members)
	}
	for k := range got {
		if got[k] != members[k] {
			t.Fatalf("iterated %v, want %v", got, members)
		}
	}
	if i := b.nextFrom(192); i != -1 {
		t.Fatalf("nextFrom past the end = %d, want -1", i)
	}
	b.clear(191)
	if i := b.nextFrom(151); i != -1 {
		t.Fatalf("nextFrom after the last member = %d, want -1", i)
	}
}

// TestFlitQueueWraps drives every capacity through several full wraps,
// comparing push/pop/at against a plain slice model at each boundary.
func TestFlitQueueWraps(t *testing.T) {
	for capacity := 1; capacity <= 9; capacity++ {
		q := newFlitQueue(capacity)
		var model []int
		seq := 0
		for round := 0; round < 4*capacity+3; round++ {
			// Fill to capacity, then drain to a varying residue so the head
			// lands on every slot.
			for !q.full() {
				q.push(flit{seq: seq})
				model = append(model, seq)
				seq++
			}
			for i := range model {
				if got := q.at(i).seq; got != model[i] {
					t.Fatalf("cap %d: at(%d) = %d, want %d", capacity, i, got, model[i])
				}
			}
			for len(model) > round%capacity {
				if got := q.pop().seq; got != model[0] {
					t.Fatalf("cap %d: pop = %d, want %d", capacity, got, model[0])
				}
				model = model[1:]
			}
			if q.len() != len(model) || q.free() != capacity-len(model) {
				t.Fatalf("cap %d: len %d free %d, model %d", capacity, q.len(), q.free(), len(model))
			}
		}
	}
}
