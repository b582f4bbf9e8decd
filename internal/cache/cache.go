// Package cache implements the set-associative caches of the simulated
// GPGPU memory hierarchy: the per-core L1 data caches and the per-MC L2
// banks (Table I: 16KB L1, 128KB L2, 128B lines), plus the MSHR file that
// merges outstanding misses.
package cache

import (
	"fmt"
	"sync"
)

// Config describes one cache.
type Config struct {
	SizeBytes int
	LineBytes int
	Ways      int
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	lw := c.LineBytes * c.Ways
	if lw <= 0 || lw/c.Ways != c.LineBytes {
		// The product overflowed int; without this check the modulo below
		// could divide by zero or accept nonsense geometry.
		return fmt.Errorf("cache: geometry overflow %+v", c)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache: size %dB not divisible by %d ways x %dB lines",
			c.SizeBytes, c.Ways, c.LineBytes)
	}
	lines := c.SizeBytes / c.LineBytes
	sets := lines / c.Ways
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d is not a power of two", sets)
	}
	return nil
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.SizeBytes / c.LineBytes / c.Ways }

type way struct {
	tag   uint64
	valid bool
	dirty bool
	used  uint64 // LRU stamp
}

// Cache is a set-associative cache with true-LRU replacement. Addresses are
// byte addresses; the cache works on line granularity internally.
type Cache struct {
	cfg Config
	// ways holds the sets back to back, Ways entries each (set).
	ways  []way
	clock uint64
	mask  uint64
	shift uint

	// Stats.
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Writeback uint64
}

// New builds a cache; it panics on invalid geometry (a construction bug,
// not a runtime condition).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.Sets()
	c := &Cache{cfg: cfg, mask: uint64(sets - 1)}
	for s := 1; s < cfg.LineBytes; s <<= 1 {
		c.shift++
	}
	c.ways = getWays(sets * cfg.Ways)
	return c
}

// wayPools holds the line storage of released caches, one *sync.Pool of
// *[]way per storage length.
var wayPools sync.Map

// getWays returns n zero ways, reusing a released cache's storage of that
// length when there is one.
func getWays(n int) []way {
	if p, ok := wayPools.Load(n); ok {
		if w, _ := p.(*sync.Pool).Get().(*[]way); w != nil {
			return *w
		}
	}
	return make([]way, n)
}

// Release hands the cache's line storage back for reuse by a later New, so
// a program that builds simulators one after another does not allocate it
// again for each. The cache must not be accessed afterwards; its counters
// stay readable. Safe to call more than once.
func (c *Cache) Release() {
	if c.ways == nil {
		return
	}
	w := c.ways
	c.ways = nil
	clear(w)
	p, ok := wayPools.Load(len(w))
	if !ok {
		p, _ = wayPools.LoadOrStore(len(w), new(sync.Pool))
	}
	p.(*sync.Pool).Put(&w)
}

// set returns the ways of set i.
func (c *Cache) set(i int) []way {
	lo := i * c.cfg.Ways
	return c.ways[lo : lo+c.cfg.Ways : lo+c.cfg.Ways]
}

// LineAddr returns the line-aligned address containing addr.
func (c *Cache) LineAddr(addr uint64) uint64 {
	return addr &^ (uint64(c.cfg.LineBytes) - 1)
}

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	line := addr >> c.shift
	return int(line & c.mask), line >> uint(popShift(c.mask))
}

func popShift(mask uint64) int {
	n := 0
	for mask != 0 {
		mask >>= 1
		n++
	}
	return n
}

// Result reports the outcome of an Access.
type Result struct {
	Hit bool
	// Evicted is set when a valid line was displaced; WritebackAddr is its
	// line address and Writeback is true when it was dirty.
	Evicted       bool
	Writeback     bool
	WritebackAddr uint64
}

// Probe reports whether addr currently hits, without disturbing state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for _, w := range c.set(set) {
		if w.valid && w.tag == tag {
			return true
		}
	}
	return false
}

// Access performs a load (write=false) or store (write=true) with
// allocate-on-miss and LRU replacement; stores mark the line dirty.
func (c *Cache) Access(addr uint64, write bool) Result {
	c.clock++
	c.Accesses++
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			ways[i].used = c.clock
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	// Choose victim: an invalid way, else true LRU.
	victim := 0
	for i := range ways {
		if !ways[i].valid {
			victim = i
			break
		}
		if ways[i].used < ways[victim].used {
			victim = i
		}
	}
	res := Result{}
	if ways[victim].valid {
		c.Evictions++
		res.Evicted = true
		if ways[victim].dirty {
			c.Writeback++
			res.Writeback = true
			res.WritebackAddr = c.rebuild(set, ways[victim].tag)
		}
	}
	ways[victim] = way{tag: tag, valid: true, dirty: write, used: c.clock}
	return res
}

// AccessNoAllocate performs a load/store that does not allocate on miss
// (the L1 treats stores as write-through no-allocate, the common GPU
// policy, so stores always produce write-request traffic).
func (c *Cache) AccessNoAllocate(addr uint64, write bool) Result {
	c.clock++
	c.Accesses++
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		if ways[i].valid && ways[i].tag == tag {
			c.Hits++
			ways[i].used = c.clock
			if write {
				ways[i].dirty = true
			}
			return Result{Hit: true}
		}
	}
	c.Misses++
	return Result{}
}

// Invalidate drops addr's line if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	ways := c.set(set)
	for i := range ways {
		w := &ways[i]
		if w.valid && w.tag == tag {
			present, dirty = true, w.dirty
			w.valid = false
			return
		}
	}
	return
}

// rebuild reconstructs a line address from set and tag.
func (c *Cache) rebuild(set int, tag uint64) uint64 {
	line := tag<<uint(popShift(c.mask)) | uint64(set)
	return line << c.shift
}

// HitRate returns hits/accesses.
func (c *Cache) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}
