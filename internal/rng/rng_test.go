package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d/100 identical outputs across different seeds", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split(1)
	c2 := parent.Split(2)
	// Splitting must not advance the parent.
	c1b := parent.Split(1)
	if c1.Uint64() != c1b.Uint64() {
		t.Fatal("Split is not a pure function of (parent state, tag)")
	}
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("children with different tags produce identical streams")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64RangeQuick(t *testing.T) {
	f := func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 50; i++ {
			if v := s.Float64(); v < 0 || v >= 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRangeQuick(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		s := New(seed)
		for i := 0; i < 20; i++ {
			v := s.Intn(m)
			if v < 0 || v >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency %v, want ~0.3", got)
	}
	if s.Bool(0) {
		t.Fatal("Bool(0) returned true")
	}
	if !s.Bool(1) {
		t.Fatal("Bool(1) returned false")
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	for _, m := range []float64{0.5, 2, 10, 50} {
		const n = 50000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(s.Geometric(m))
		}
		got := sum / n
		if math.Abs(got-m) > 0.1*m+0.1 {
			t.Fatalf("Geometric(%v) mean %v, want ~%v", m, got, m)
		}
	}
	if g := s.Geometric(0); g != 0 {
		t.Fatalf("Geometric(0) = %d, want 0", g)
	}
	if g := s.Geometric(-1); g != 0 {
		t.Fatalf("Geometric(-1) = %d, want 0", g)
	}
}

func TestGeometricNonNegativeQuick(t *testing.T) {
	f := func(seed uint64, m uint8) bool {
		s := New(seed)
		mean := float64(m) / 4
		for i := 0; i < 20; i++ {
			if s.Geometric(mean) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(17)
	dst := make([]int, 37)
	s.Perm(dst)
	seen := make(map[int]bool, len(dst))
	for _, v := range dst {
		if v < 0 || v >= len(dst) || seen[v] {
			t.Fatalf("not a permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestUniformity(t *testing.T) {
	// Coarse chi-square-ish check: 16 buckets of Intn(16) over 160k draws
	// should each hold ~10k +- 5%.
	s := New(23)
	var buckets [16]int
	const n = 160000
	for i := 0; i < n; i++ {
		buckets[s.Intn(16)]++
	}
	for b, c := range buckets {
		if c < 9500 || c > 10500 {
			t.Fatalf("bucket %d holds %d, want ~10000", b, c)
		}
	}
}

// geometricTwoLog is the original Geometric, which recomputed ln(1-p) on
// every draw; Sample must reproduce it bit for bit.
func geometricTwoLog(s *Source, m float64) int {
	if m <= 0 {
		return 0
	}
	p := 1.0 / (m + 1.0)
	u := s.Float64()
	g := int(math.Log(1.0-u) / math.Log(1.0-p))
	limit := int(64*m) + 64
	if g < 0 {
		g = 0
	}
	if g > limit {
		g = limit
	}
	return g
}

// TestSampleMatchesGeometric draws 1e5 samples per mean from three sources
// in lockstep — Sample with a prebuilt Geom, Geometric, and the two-log
// reference — across means from degenerate (0, negative: no draw consumed)
// through the kernel validator's 1e9 limit to means whose tail clamp and
// log constant sit at float64's edges.
func TestSampleMatchesGeometric(t *testing.T) {
	means := []float64{-1, 0, 1e-300, 1e-9, 0.25, 0.5, 1, 2, 3, 7.5, 20, 64, 1e3, 1e6, 1e9, 1e16, 1e17}
	for i, m := range means {
		seed := uint64(100 + i)
		a, b, ref := New(seed), New(seed), New(seed)
		g := NewGeom(m)
		for k := 0; k < 100000; k++ {
			x, y, z := a.Sample(g), b.Geometric(m), geometricTwoLog(ref, m)
			if x != z || y != z {
				t.Fatalf("mean %v draw %d: Sample %d, Geometric %d, two-log reference %d", m, k, x, y, z)
			}
		}
		if next := ref.Uint64(); a.Uint64() != next || b.Uint64() != next {
			t.Fatalf("mean %v: streams diverged after 1e5 draws", m)
		}
	}
}
