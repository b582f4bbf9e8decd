package rng

import "testing"

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Uint64()
	}
}

func BenchmarkFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Float64()
	}
}

func BenchmarkGeometric(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		s.Geometric(20)
	}
}

func BenchmarkGeomSample(b *testing.B) {
	s := New(1)
	g := NewGeom(20)
	for i := 0; i < b.N; i++ {
		s.Sample(g)
	}
}
