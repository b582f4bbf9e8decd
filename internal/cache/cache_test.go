package cache

import (
	"reflect"
	"testing"
	"testing/quick"
)

func smallCache(t *testing.T) *Cache {
	t.Helper()
	// 4 sets x 2 ways x 128B lines = 1KB.
	return New(Config{SizeBytes: 1024, LineBytes: 128, Ways: 2})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, LineBytes: 128, Ways: 2},
		{SizeBytes: 1024, LineBytes: 0, Ways: 2},
		{SizeBytes: 1024, LineBytes: 128, Ways: 0},
		{SizeBytes: 1000, LineBytes: 128, Ways: 2},        // not divisible
		{SizeBytes: 128 * 2 * 3, LineBytes: 128, Ways: 2}, // 3 sets: not pow2
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	good := Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if good.Sets() != 32 {
		t.Fatalf("Sets = %d, want 32", good.Sets())
	}
}

func TestHitAfterMiss(t *testing.T) {
	c := smallCache(t)
	if r := c.Access(0x1000, false); r.Hit {
		t.Fatal("first access hit an empty cache")
	}
	if r := c.Access(0x1000, false); !r.Hit {
		t.Fatal("second access to same line missed")
	}
	// Same line, different byte offset.
	if r := c.Access(0x1000+64, false); !r.Hit {
		t.Fatal("intra-line offset missed")
	}
}

func TestLRUEviction(t *testing.T) {
	c := smallCache(t)
	// Three lines mapping to the same set of a 2-way cache: set index is
	// bits [9:7] of the address; stride of 4*128=512 bytes keeps set 0.
	a, b, d := uint64(0), uint64(512), uint64(1024)
	c.Access(a, false)
	c.Access(b, false)
	c.Access(a, false) // a is now MRU
	r := c.Access(d, false)
	if r.Hit || !r.Evicted {
		t.Fatalf("expected miss+eviction, got %+v", r)
	}
	if !c.Probe(a) {
		t.Fatal("MRU line a was evicted")
	}
	if c.Probe(b) {
		t.Fatal("LRU line b survived")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := smallCache(t)
	c.Access(0, true) // dirty
	c.Access(512, false)
	r := c.Access(1024, false) // evicts line 0 (LRU, dirty)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Fatalf("expected writeback of line 0, got %+v", r)
	}
	c2 := smallCache(t)
	c2.Access(0, false) // clean
	c2.Access(512, false)
	r2 := c2.Access(1024, false)
	if r2.Writeback {
		t.Fatal("clean eviction reported writeback")
	}
}

func TestAccessNoAllocate(t *testing.T) {
	c := smallCache(t)
	if r := c.AccessNoAllocate(0x2000, true); r.Hit {
		t.Fatal("no-allocate store hit empty cache")
	}
	if c.Probe(0x2000) {
		t.Fatal("no-allocate access installed a line")
	}
	c.Access(0x2000, false)
	if r := c.AccessNoAllocate(0x2000, true); !r.Hit {
		t.Fatal("no-allocate store missed resident line")
	}
}

func TestInvalidate(t *testing.T) {
	c := smallCache(t)
	c.Access(0x3000, true)
	present, dirty := c.Invalidate(0x3000)
	if !present || !dirty {
		t.Fatalf("invalidate: present=%v dirty=%v, want true/true", present, dirty)
	}
	if c.Probe(0x3000) {
		t.Fatal("line survived invalidation")
	}
	present, _ = c.Invalidate(0x3000)
	if present {
		t.Fatal("double invalidation reported present")
	}
}

func TestStats(t *testing.T) {
	c := smallCache(t)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(512, false)
	if c.Accesses != 3 || c.Hits != 1 || c.Misses != 2 {
		t.Fatalf("stats: %d/%d/%d", c.Accesses, c.Hits, c.Misses)
	}
	if hr := c.HitRate(); hr != 1.0/3.0 {
		t.Fatalf("hit rate = %v", hr)
	}
}

// TestWorkingSetFits: a working set no larger than the cache must converge
// to 100% hits after the first pass (property over sizes).
func TestWorkingSetFits(t *testing.T) {
	c := New(Config{SizeBytes: 16 << 10, LineBytes: 128, Ways: 4})
	lines := 16 * 1024 / 128
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < lines; i++ {
			c.Access(uint64(i*128), false)
		}
	}
	// Passes 2 and 3 must be all hits.
	wantHits := uint64(2 * lines)
	if c.Hits != wantHits {
		t.Fatalf("hits = %d, want %d", c.Hits, wantHits)
	}
}

// TestRebuildRoundTripQuick: the line address reconstructed for writebacks
// must map back to the same set and tag.
func TestRebuildRoundTripQuick(t *testing.T) {
	c := New(Config{SizeBytes: 32 << 10, LineBytes: 128, Ways: 8})
	f := func(addr uint64) bool {
		addr &= (1 << 40) - 1
		set, tag := c.index(addr)
		re := c.rebuild(set, tag)
		s2, t2 := c.index(re)
		return s2 == set && t2 == tag && re == c.LineAddr(addr)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestProbeNeverMutates: Probe must not affect subsequent behaviour.
func TestProbeNeverMutates(t *testing.T) {
	c1, c2 := smallCache(t), smallCache(t)
	addrs := []uint64{0, 512, 1024, 0, 2048, 512}
	for _, a := range addrs {
		c1.Probe(a ^ 0x40) // interleave probes on c1 only
		r1 := c1.Access(a, false)
		r2 := c2.Access(a, false)
		if r1.Hit != r2.Hit || r1.Writeback != r2.Writeback {
			t.Fatalf("probe changed behaviour at %x: %+v vs %+v", a, r1, r2)
		}
	}
}

func TestMSHRMergeAndFill(t *testing.T) {
	m := NewMSHR(2, 3)
	if o := m.Lookup(0x100, 1); o != Allocated {
		t.Fatalf("first lookup = %v, want Allocated", o)
	}
	if o := m.Lookup(0x100, 2); o != Merged {
		t.Fatalf("second lookup = %v, want Merged", o)
	}
	if !m.Pending(0x100) || m.Pending(0x200) {
		t.Fatal("Pending wrong")
	}
	ws := m.Fill(0x100)
	if len(ws) != 2 || ws[0] != 1 || ws[1] != 2 {
		t.Fatalf("fill waiters = %v", ws)
	}
	if m.Pending(0x100) {
		t.Fatal("entry survived fill")
	}
	if ws := m.Fill(0x100); ws != nil {
		t.Fatal("double fill returned waiters")
	}
}

// TestMSHRFillMiddleKeepsOthers fills an entry from the middle of the file
// and checks the remaining lines keep their own waiters and slots.
func TestMSHRFillMiddleKeepsOthers(t *testing.T) {
	m := NewMSHR(3, 2)
	for i, line := range []uint64{0x100, 0x200, 0x300} {
		m.Lookup(line, i)
	}
	m.Lookup(0x300, 30)
	if ws := m.Fill(0x200); len(ws) != 1 || ws[0] != 1 {
		t.Fatalf("fill 0x200 waiters = %v, want [1]", ws)
	}
	if m.Occupied() != 2 || m.Pending(0x200) || !m.Pending(0x100) || !m.Pending(0x300) {
		t.Fatalf("after filling the middle entry: occupied %d, pending %v/%v/%v",
			m.Occupied(), m.Pending(0x100), m.Pending(0x200), m.Pending(0x300))
	}
	if o := m.Lookup(0x400, 4); o != Allocated {
		t.Fatalf("lookup into the freed slot = %v, want Allocated", o)
	}
	if ws := m.Fill(0x300); len(ws) != 2 || ws[0] != 2 || ws[1] != 30 {
		t.Fatalf("fill 0x300 waiters = %v, want [2 30]", ws)
	}
	if ws := m.Fill(0x100); len(ws) != 1 || ws[0] != 0 {
		t.Fatalf("fill 0x100 waiters = %v, want [0]", ws)
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(1, 2)
	m.Lookup(0x100, 1)
	if o := m.Lookup(0x200, 2); o != Stalled {
		t.Fatalf("entry-capacity overflow = %v, want Stalled", o)
	}
	m.Lookup(0x100, 2)
	if o := m.Lookup(0x100, 3); o != Stalled {
		t.Fatalf("waiter-capacity overflow = %v, want Stalled", o)
	}
	if !m.Full() {
		t.Fatal("Full() false with max entries")
	}
	if m.FullStall != 2 {
		t.Fatalf("FullStall = %d, want 2", m.FullStall)
	}
}

// TestMSHRConservationQuick: every waiter registered must come back from
// exactly one Fill.
func TestMSHRConservationQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		m := NewMSHR(8, 4)
		registered := map[int]bool{}
		token := 0
		for _, op := range ops {
			line := uint64(op%8) * 128
			if op < 200 {
				token++
				if m.Lookup(line, token) != Stalled {
					registered[token] = true
				}
			} else {
				for _, w := range m.Fill(line) {
					if !registered[w] {
						return false
					}
					delete(registered, w)
				}
			}
		}
		// Drain the rest.
		for line := uint64(0); line < 8*128; line += 128 {
			for _, w := range m.Fill(line) {
				if !registered[w] {
					return false
				}
				delete(registered, w)
			}
		}
		return len(registered) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseReuse checks that a cache built on a released cache's storage
// starts empty and behaves exactly like a fresh one.
func TestReleaseReuse(t *testing.T) {
	cfg := Config{SizeBytes: 1024, LineBytes: 128, Ways: 2}
	trace := func(c *Cache) []Result {
		var out []Result
		for i := uint64(0); i < 64; i++ {
			out = append(out, c.Access((i*2654435761)%4096&^127, i%3 == 0))
		}
		return out
	}
	want := trace(New(cfg))

	old := New(cfg)
	trace(old)
	old.Release()
	old.Release()
	c := New(cfg)
	for a := uint64(0); a < 4096; a += 128 {
		if c.Probe(a) {
			t.Fatalf("line %#x present in a new cache", a)
		}
	}
	if got := trace(c); !reflect.DeepEqual(got, want) {
		t.Fatalf("cache on released storage diverged:\n got %v\nwant %v", got, want)
	}
}
