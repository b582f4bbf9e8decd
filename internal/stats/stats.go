// Package stats provides lightweight statistics collectors used throughout
// the simulator: counters, running means, histograms and time-weighted
// occupancy trackers. All collectors are plain values with no locking; the
// simulator is single-threaded per run and the experiment harness runs whole
// simulations in parallel, never sharing collectors.
package stats

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Mean accumulates a running arithmetic mean.
type Mean struct {
	sum   float64
	count uint64
}

// Add folds a sample into the mean.
func (m *Mean) Add(v float64) {
	m.sum += v
	m.count++
}

// AddN folds n identical samples into the mean.
func (m *Mean) AddN(v float64, n uint64) {
	m.sum += v * float64(n)
	m.count += n
}

// Value returns the current mean, or 0 if no samples were added.
func (m *Mean) Value() float64 {
	if m.count == 0 {
		return 0
	}
	return m.sum / float64(m.count)
}

// Sum returns the sum of all samples.
func (m *Mean) Sum() float64 { return m.sum }

// Count returns the number of samples.
func (m *Mean) Count() uint64 { return m.count }

// Merge folds another Mean into m.
func (m *Mean) Merge(o Mean) {
	m.sum += o.sum
	m.count += o.count
}

// MarshalJSON encodes the internal accumulators (not the derived mean) so
// encoded results round-trip bit-exactly — the golden-file and equivalence
// tests compare encoded bytes.
func (m Mean) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf(`{"Sum":%s,"Count":%d}`,
		strconv.FormatFloat(m.sum, 'g', -1, 64), m.count)), nil
}

// UnmarshalJSON restores the accumulators written by MarshalJSON.
func (m *Mean) UnmarshalJSON(data []byte) error {
	var aux struct {
		Sum   float64
		Count uint64
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	m.sum, m.count = aux.Sum, aux.Count
	return nil
}

// Histogram is a fixed-width bucket histogram over [0, width*len(buckets)),
// with an overflow bucket for larger samples.
type Histogram struct {
	width    float64
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      float64
	max      float64
}

// NewHistogram returns a histogram with n buckets of the given width.
func NewHistogram(n int, width float64) *Histogram {
	if n <= 0 || width <= 0 {
		panic("stats: histogram needs positive bucket count and width")
	}
	return &Histogram{width: width, buckets: make([]uint64, n)}
}

// Add folds a sample into the histogram. Negative samples clamp to bucket 0.
func (h *Histogram) Add(v float64) {
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
	if v < 0 {
		v = 0
	}
	i := int(v / h.width)
	if i >= len(h.buckets) {
		h.overflow++
		return
	}
	h.buckets[i]++
}

// Count returns the total number of samples.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the mean of all samples (including overflow samples, using
// their true values).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest sample seen.
func (h *Histogram) Max() float64 { return h.max }

// Percentile returns an approximation of the p-th percentile (0..100) using
// bucket lower edges; overflow samples report as the overflow edge.
func (h *Histogram) Percentile(p float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := uint64(math.Ceil(p / 100 * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for i, b := range h.buckets {
		seen += b
		if seen >= target {
			return float64(i) * h.width
		}
	}
	return float64(len(h.buckets)) * h.width
}

// NewTimeWeightedAt returns a TimeWeighted whose observation window starts
// at time now with the given level (used when resetting stats mid-run).
func NewTimeWeightedAt(level float64, now int64) TimeWeighted {
	return TimeWeighted{level: level, lastTime: now, peak: level}
}

// TimeWeighted tracks the time-average of a level signal (such as queue
// occupancy): call Set whenever the level changes, then Average at the end.
type TimeWeighted struct {
	level    float64
	lastTime int64
	weighted float64
	span     int64
	peak     float64
}

// Set records that the level changed to v at time now.
func (t *TimeWeighted) Set(v float64, now int64) {
	dt := now - t.lastTime
	if dt > 0 {
		t.weighted += t.level * float64(dt)
		t.span += dt
	}
	t.level = v
	t.lastTime = now
	if v > t.peak {
		t.peak = v
	}
}

// Finish closes the observation window at time now.
func (t *TimeWeighted) Finish(now int64) { t.Set(t.level, now) }

// Average returns the time-weighted average level.
func (t *TimeWeighted) Average() float64 {
	if t.span == 0 {
		return t.level
	}
	return t.weighted / float64(t.span)
}

// Peak returns the highest level observed.
func (t *TimeWeighted) Peak() float64 { return t.peak }

// Series is a compact time series: (time, value) pairs in parallel slices,
// appended in non-decreasing time order. It is the storage behind the
// observability registry's per-interval metric snapshots; Reserve lets a
// caller pre-size it so that steady-state appends never allocate (the
// registry's sampling hot path relies on that).
type Series struct {
	t []int64
	v []float64
}

// Reserve grows the series' capacity to hold at least n total samples.
func (s *Series) Reserve(n int) {
	if cap(s.t) < n {
		t := make([]int64, len(s.t), n)
		copy(t, s.t)
		s.t = t
	}
	if cap(s.v) < n {
		v := make([]float64, len(s.v), n)
		copy(v, s.v)
		s.v = v
	}
}

// Append records value v at time t.
func (s *Series) Append(t int64, v float64) {
	s.t = append(s.t, t)
	s.v = append(s.v, v)
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.t) }

// Time returns the i-th sample's time.
func (s *Series) Time(i int) int64 { return s.t[i] }

// Value returns the i-th sample's value.
func (s *Series) Value(i int) float64 { return s.v[i] }

// Last returns the most recent sample, or (0, 0) for an empty series.
func (s *Series) Last() (int64, float64) {
	if len(s.t) == 0 {
		return 0, 0
	}
	return s.t[len(s.t)-1], s.v[len(s.v)-1]
}

// Values returns the underlying value slice (not a copy; callers must not
// append to it).
func (s *Series) Values() []float64 { return s.v }

// GeoMean returns the geometric mean of xs, ignoring non-positive entries
// the way architecture papers do when normalising IPC (a non-positive value
// would make the product meaningless). Returns 0 for an empty or all-invalid
// slice.
func GeoMean(xs []float64) float64 {
	var logSum float64
	var n int
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		logSum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(logSum / float64(n))
}

// Table is a minimal fixed-column text table used by the experiment harness
// to print figure data as aligned rows.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable returns a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped and
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted float cells after a leading label.
func (t *Table) AddRowf(label string, format string, vals ...float64) {
	cells := make([]string, 0, len(vals)+1)
	cells = append(cells, label)
	for _, v := range vals {
		cells = append(cells, fmt.Sprintf(format, v))
	}
	t.AddRow(cells...)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (header row first; cells with
// commas or quotes are quoted).
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Markdown renders the table as a Markdown table (header row, separator,
// body rows; cells are written verbatim).
func (t *Table) Markdown() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		b.WriteString("| ")
		b.WriteString(strings.Join(cells, " | "))
		b.WriteString(" |\n")
	}
	writeRow(t.header)
	b.WriteString("|" + strings.Repeat("---|", len(t.header)) + "\n")
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// SortedKeys returns the keys of m in ascending order; used to iterate maps
// deterministically when printing.
func SortedKeys[K int | string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}
