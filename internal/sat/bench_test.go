package sat

import (
	"testing"

	"lasvegas/internal/xrand"
)

// BenchmarkWalkSATSolve measures one full WalkSAT solve of a planted
// 3-SAT instance, solver construction excluded — the inner flip loop
// must be allocation-free (only the returned model copy allocates).
func BenchmarkWalkSATSolve(b *testing.B) {
	r := xrand.New(2)
	f, _, err := RandomPlantedKSAT(100, 400, 3, r)
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewSolver(f, Params{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.Run(xrand.New(uint64(i))); !res.Solved {
			b.Fatal("unsolved planted instance")
		}
	}
}
