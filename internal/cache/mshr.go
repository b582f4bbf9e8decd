package cache

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges subsequent misses to the same line, so one in-flight
// read request serves every warp waiting on that line.
type MSHR struct {
	// lines[i] is the line address of entry i and waiters[i] its waiter
	// tokens. The file holds at most max entries, so a scan of the dense
	// lines slice beats hashing; entry order is never observable.
	lines   []uint64
	waiters [][]int
	max     int
	maxWait int
	// free recycles waiter slices between entries (Lookup pops, Recycle
	// pushes), keeping the steady-state miss path allocation-free.
	free [][]int

	// Stats.
	Merges    uint64
	Allocs    uint64
	FullStall uint64
}

// NewMSHR returns an MSHR file with at most maxEntries outstanding lines
// and maxWaiters merged waiters per line.
func NewMSHR(maxEntries, maxWaiters int) *MSHR {
	if maxEntries <= 0 || maxWaiters <= 0 {
		panic("cache: MSHR sizes must be positive")
	}
	return &MSHR{
		lines:   make([]uint64, 0, maxEntries),
		waiters: make([][]int, 0, maxEntries),
		max:     maxEntries,
		maxWait: maxWaiters,
	}
}

// Outcome of an MSHR lookup/allocate.
type Outcome uint8

const (
	// Allocated: a new entry was created; the caller must issue the fill.
	Allocated Outcome = iota
	// Merged: an entry existed; the waiter was attached, no new fill.
	Merged
	// Stalled: no entry or waiter slot available; retry later.
	Stalled
)

// Lookup attaches waiter to lineAddr's entry, allocating one if needed.
func (m *MSHR) Lookup(lineAddr uint64, waiter int) Outcome {
	if i := m.find(lineAddr); i >= 0 {
		if len(m.waiters[i]) >= m.maxWait {
			m.FullStall++
			return Stalled
		}
		m.waiters[i] = append(m.waiters[i], waiter)
		m.Merges++
		return Merged
	}
	if len(m.lines) >= m.max {
		m.FullStall++
		return Stalled
	}
	var ws []int
	if n := len(m.free); n > 0 {
		ws = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		ws = make([]int, 0, 4)
	}
	m.lines = append(m.lines, lineAddr)
	m.waiters = append(m.waiters, append(ws, waiter))
	m.Allocs++
	return Allocated
}

// find returns lineAddr's entry index, or -1.
func (m *MSHR) find(lineAddr uint64) int {
	for i, l := range m.lines {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Pending reports whether lineAddr has an outstanding fill.
func (m *MSHR) Pending(lineAddr uint64) bool { return m.find(lineAddr) >= 0 }

// Fill completes lineAddr's outstanding fill and returns its waiters. The
// returned slice stays valid until the caller hands it back via Recycle (or
// forever, if the caller never does).
func (m *MSHR) Fill(lineAddr uint64) []int {
	i := m.find(lineAddr)
	if i < 0 {
		return nil
	}
	ws := m.waiters[i]
	last := len(m.lines) - 1
	m.lines[i], m.waiters[i] = m.lines[last], m.waiters[last]
	m.waiters[last] = nil
	m.lines, m.waiters = m.lines[:last], m.waiters[:last]
	return ws
}

// Recycle returns a slice obtained from Fill to the MSHR's freelist once
// the caller is done iterating it. Optional but keeps fills allocation-free.
func (m *MSHR) Recycle(ws []int) {
	if ws == nil {
		return
	}
	m.free = append(m.free, ws[:0])
}

// Occupied returns the number of outstanding entries.
func (m *MSHR) Occupied() int { return len(m.lines) }

// Full reports whether no further line can be allocated.
func (m *MSHR) Full() bool { return len(m.lines) >= m.max }
