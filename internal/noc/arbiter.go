package noc

import "math/bits"

// roundRobin is a rotating-priority arbiter over n requesters. Grant order
// starts at the slot after the previous winner, so every requester is at
// most n-1 grants from the front (strong fairness).
type roundRobin struct {
	n    int
	next int
}

func newRoundRobin(n int) *roundRobin { return &roundRobin{n: n} }

// advance moves the pointer past winner i.
func (a *roundRobin) advance(i int) {
	a.next = i + 1
	if a.next == a.n {
		a.next = 0
	}
}

// pick returns the first index i (scanning next, next+1, ... mod n) for
// which req(i) is true, advancing the pointer past the winner. It returns
// -1 when nothing is requesting.
func (a *roundRobin) pick(req func(i int) bool) int {
	i := a.next
	for k := 0; k < a.n; k++ {
		if req(i) {
			a.advance(i)
			return i
		}
		if i++; i == a.n {
			i = 0
		}
	}
	return -1
}

// pickMask is pick over a request bitset (bit i set => requester i
// requests; no bit at or above n may be set): the first set bit at or
// after the pointer, wrapping to the lowest set bit.
func (a *roundRobin) pickMask(req bitset) int {
	i := req.nextFrom(a.next)
	if i < 0 {
		i = req.nextFrom(0)
	}
	if i >= 0 {
		a.advance(i)
	}
	return i
}

// pickPriorityMask grants, among the requesters set in req, the one with
// the highest prio[i]; ties break round-robin from the rotating pointer
// (the first of the tied requesters in rotation order wins). This models
// the ARI priority-aware switch allocator output stage (§5).
func (a *roundRobin) pickPriorityMask(req bitset, prio []int) int {
	best, bestPrio := -1, 0
	for i := req.nextFrom(a.next); i >= 0; i = req.nextFrom(i + 1) {
		if best == -1 || prio[i] > bestPrio {
			best, bestPrio = i, prio[i]
		}
	}
	for i := req.nextFrom(0); i >= 0 && i < a.next; i = req.nextFrom(i + 1) {
		if best == -1 || prio[i] > bestPrio {
			best, bestPrio = i, prio[i]
		}
	}
	if best >= 0 {
		a.advance(best)
	}
	return best
}

// bitset is a fixed-size set of small non-negative integers, one bit each,
// 64 to a word.
type bitset []uint64

// bitsetWords is the number of words a bitset over n members needs.
func bitsetWords(n int) int { return (n + 63) / 64 }

func (b bitset) set(i int)      { b[i>>6] |= 1 << uint(i&63) }
func (b bitset) clear(i int)    { b[i>>6] &^= 1 << uint(i&63) }
func (b bitset) has(i int) bool { return b[i>>6]&(1<<uint(i&63)) != 0 }

func (b bitset) empty() bool {
	for _, w := range b {
		if w != 0 {
			return false
		}
	}
	return true
}

func (b bitset) reset() {
	for i := range b {
		b[i] = 0
	}
}

// nextFrom returns the smallest member >= i, or -1 when there is none.
func (b bitset) nextFrom(i int) int {
	w := i >> 6
	if w >= len(b) {
		return -1
	}
	x := b[w] &^ (1<<uint(i&63) - 1)
	for x == 0 {
		if w++; w == len(b) {
			return -1
		}
		x = b[w]
	}
	return w<<6 | bits.TrailingZeros64(x)
}
