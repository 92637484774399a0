package sketch

import (
	"math"
	"slices"
	"sort"
	"sync"
	"testing"

	"lasvegas/internal/xrand"
)

// compactSorted is compact with the sort it had before run merging,
// the oracle the merge path must reproduce bit for bit.
func (s *Sketch) compactSorted(h int) {
	for ; h < len(s.levels) && len(s.levels[h]) >= s.k; h++ {
		buf := s.levels[h]
		sort.Float64s(buf)
		var leftover float64
		hasLeftover := len(buf)%2 == 1
		if hasLeftover {
			leftover = buf[len(buf)-1]
			buf = buf[:len(buf)-1]
		}
		start := 0
		if s.compactions[h]%2 == 1 {
			start = 1
		}
		if len(s.levels) <= h+1 {
			s.levels = append(s.levels, nil)
			s.compactions = append(s.compactions, 0)
		}
		for i := start; i < len(buf); i += 2 {
			s.levels[h+1] = append(s.levels[h+1], buf[i])
		}
		s.compactions[h]++
		s.levels[h] = s.levels[h][:0]
		if hasLeftover {
			s.levels[h] = append(s.levels[h], leftover)
		}
	}
}

// sameLevels reports whether two sketches retain the same bits at the
// same positions of every level.
func sameLevels(a, b *Sketch) bool {
	if len(a.levels) != len(b.levels) || !slices.Equal(a.compactions, b.compactions) {
		return false
	}
	for h := range a.levels {
		if len(a.levels[h]) != len(b.levels[h]) {
			return false
		}
		for i, x := range a.levels[h] {
			if math.Float64bits(x) != math.Float64bits(b.levels[h][i]) {
				return false
			}
		}
	}
	return true
}

func TestMergeRunsMatchesSort(t *testing.T) {
	negZero := math.Copysign(0, -1)
	r := xrand.New(4)
	ascending := func(n, mod int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(mod))
		}
		sort.Float64s(xs)
		return xs
	}
	cases := map[string][]float64{
		"empty":              {},
		"sorted":             ascending(100, 7),
		"leftover+two-runs":  slices.Concat([]float64{50}, ascending(512, 60), ascending(513, 60)),
		"four-runs-ties":     slices.Concat(ascending(9, 3), ascending(9, 3), ascending(9, 3), ascending(9, 3)),
		"five-runs":          slices.Concat(ascending(9, 3), ascending(9, 3), ascending(9, 3), ascending(9, 3), ascending(9, 3)),
		"descending":         {5, 4, 3, 2, 1},
		"signed-zeros":       {0, 1, negZero, 2, negZero, 0},
		"negative-zero-only": {negZero, 1, negZero, 2, negZero},
		"positive-zero-only": {1, 0, 2, 0, 3},
		"random":             tiedValues(r, 300),
	}
	for name, in := range cases {
		got, want := slices.Clone(in), slices.Clone(in)
		if !mergeRuns(got) {
			got = slices.Clone(in)
			sort.Float64s(got)
		}
		sort.Float64s(want)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Errorf("%s: merged[%d] = %v, sorted %v", name, i, got[i], want[i])
			}
		}
	}
}

// tiedValues draws n values with many ties and some signed zeros.
func tiedValues(r *xrand.Rand, n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(r.Intn(20) - 3)
		if xs[i] == 0 && r.Intn(2) == 0 {
			xs[i] = math.Copysign(0, -1)
		}
	}
	return xs
}

// TestCompactionMatchesSortPath folds tied streams, and one with both
// signed zeros, into a sketch and into the sort-only oracle, and
// requires identical levels after every observation.
func TestCompactionMatchesSortPath(t *testing.T) {
	r := xrand.New(8)
	streams := map[string][]float64{
		"tied-lognormal": make([]float64, 30000),
		"signed-zeros":   tiedValues(r, 20000),
		"ascending":      make([]float64, 20000),
	}
	for i := range streams["tied-lognormal"] {
		streams["tied-lognormal"][i] = math.Ceil(math.Exp(7 + 0.85*r.Norm()))
	}
	for i := range streams["ascending"] {
		streams["ascending"][i] = float64(i / 3)
	}
	for name, xs := range streams {
		got, _ := New(64)
		want, _ := New(64)
		for i, x := range xs {
			if err := got.Add(x); err != nil {
				t.Fatal(err)
			}
			want.levels[0] = append(want.levels[0], x)
			if len(want.levels[0]) >= want.k {
				want.compactSorted(0)
			}
			if !sameLevels(got, want) {
				t.Fatalf("%s: levels differ after observation %d", name, i)
			}
		}
		a, _ := New(64)
		b, _ := New(64)
		_ = a.AddAll(xs[:len(xs)/3])
		_ = b.AddAll(xs[len(xs)/3:])
		merged, err := Merge(a, b)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &Sketch{k: 64, levels: make([][]float64, len(merged.levels)), compactions: make([]uint64, len(merged.levels))}
		for h := range oracle.levels {
			for _, s := range []*Sketch{a, b} {
				if h < len(s.levels) {
					oracle.levels[h] = append(oracle.levels[h], s.levels[h]...)
					oracle.compactions[h] += s.compactions[h]
				}
			}
		}
		for h := 0; h < len(oracle.levels); h++ {
			if len(oracle.levels[h]) >= oracle.k {
				oracle.compactSorted(h)
			}
		}
		if !sameLevels(merged, oracle) {
			t.Errorf("%s: merged levels differ from the sort path", name)
		}
	}
}

// TestCompactionConcurrent folds streams into separate sketches from
// several goroutines at once: the pooled merge buffers must leave each
// sketch as a serial fold does.
func TestCompactionConcurrent(t *testing.T) {
	streams := make([][]float64, 6)
	want := make([]*Sketch, len(streams))
	for i := range streams {
		r := xrand.New(uint64(i))
		streams[i] = make([]float64, 5000)
		for j := range streams[i] {
			streams[i][j] = math.Ceil(math.Exp(5 + r.Norm()))
		}
		want[i], _ = New(32)
		_ = want[i].AddAll(streams[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		for i := range streams {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got, _ := New(32)
				_ = got.AddAll(streams[i])
				if !sameLevels(got, want[i]) {
					t.Errorf("stream %d: concurrent fold differs from the serial one", i)
				}
			}()
		}
	}
	wg.Wait()
}
