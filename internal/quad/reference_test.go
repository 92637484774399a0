package quad

import (
	"math"
	"sync"
	"testing"
)

// refNode is the per-call node math both rules ran before the node
// table: the abscissa and weight of parameter t on [a, b], anchored
// to a for t ≤ 0 and to b for t > 0. The table must reproduce it bit
// for bit.
func refNode(t, a, b float64) (x, w float64) {
	half := (b - a) / 2
	s := math.Sinh(t)
	c := math.Cosh(t)
	u := math.Pi / 2 * s
	sech := 1 / math.Cosh(u)
	if t <= 0 {
		x = a + half*2/(1+math.Exp(-2*u))
	} else {
		x = b - half*2/(1+math.Exp(2*u))
	}
	w = half * math.Pi / 2 * c * sech * sech
	return
}

// refLevelTs returns the parameters level lv adds, in the order both
// reference rules visit them: 0, 1, −1, …, 4, −4 at level 0 and
// h, −h, 3h, −3h, … at level lv ≥ 1.
func refLevelTs(lv int) []float64 {
	h := 1.0
	for range lv {
		h /= 2
	}
	if lv == 0 {
		ts := []float64{0}
		for t := h; t <= tmax; t += h {
			ts = append(ts, t, -t)
		}
		return ts
	}
	var ts []float64
	for t := h; t <= tmax; t += 2 * h {
		ts = append(ts, t, -t)
	}
	return ts
}

// refTanhSinh is TanhSinh with the reference node math.
func refTanhSinh(f Func, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	g := func(t float64) float64 {
		x, w := refNode(t, a, b)
		if w == 0 || math.IsInf(x, 0) {
			return 0
		}
		v := f(x)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return 0
		}
		return v * w
	}
	h := 1.0
	sum0 := g(0)
	for t := h; t <= tmax; t += h {
		sum0 += g(t) + g(-t)
	}
	prev := h * sum0
	for level := 1; level <= 12; level++ {
		h /= 2
		sum := 0.0
		for t := h; t <= tmax; t += 2 * h {
			sum += g(t) + g(-t)
		}
		cur := prev/2 + h*sum
		if level >= 3 && math.Abs(cur-prev) <= tol*(1+math.Abs(cur)) {
			return cur, nil
		}
		prev = cur
	}
	return prev, ErrNoConvergence
}

// refTanhSinhBatch is TanhSinhBatch with the reference node math.
func refTanhSinhBatch(f BatchFunc, a, b, tol float64) (float64, error) {
	if a == b {
		return 0, nil
	}
	if tol <= 0 {
		tol = 1e-12
	}
	level := func(ts []float64) float64 {
		var xs, ws []float64
		for _, t := range ts {
			x, w := refNode(t, a, b)
			if w == 0 || math.IsInf(x, 0) {
				continue
			}
			xs = append(xs, x)
			ws = append(ws, w)
		}
		if len(xs) == 0 {
			return 0
		}
		vs := make([]float64, len(xs))
		f(xs, vs)
		var sum float64
		for i, v := range vs {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			sum += v * ws[i]
		}
		return sum
	}
	h := 1.0
	prev := h * level(refLevelTs(0))
	for lv := 1; lv <= 12; lv++ {
		h /= 2
		cur := prev/2 + h*level(refLevelTs(lv))
		if lv >= 3 && math.Abs(cur-prev) <= tol*(1+math.Abs(cur)) {
			return cur, nil
		}
		prev = cur
	}
	return prev, ErrNoConvergence
}

// batchOf lifts a scalar integrand to a BatchFunc.
func batchOf(f Func) BatchFunc {
	return func(xs, dst []float64) {
		for i, x := range xs {
			dst[i] = f(x)
		}
	}
}

// sameBits reports whether two results are the same float64, NaNs
// included.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// checkRules requires both rules to return the reference rules'
// values and errors bit for bit on f over [a, b].
func checkRules(t *testing.T, name string, f Func, a, b, tol float64) {
	t.Helper()
	want, wantErr := refTanhSinh(f, a, b, tol)
	got, err := TanhSinh(f, a, b, tol)
	if !sameBits(got, want) || err != wantErr {
		t.Errorf("%s on [%g, %g]: TanhSinh = %v (%v), reference %v (%v)", name, a, b, got, err, want, wantErr)
	}
	want, wantErr = refTanhSinhBatch(batchOf(f), a, b, tol)
	got, err = TanhSinhBatch(batchOf(f), a, b, tol)
	if !sameBits(got, want) || err != wantErr {
		t.Errorf("%s on [%g, %g]: TanhSinhBatch = %v (%v), reference %v (%v)", name, a, b, got, err, want, wantErr)
	}
}

// tableIntervals are the unit interval and shifted, scaled, reversed,
// tiny and huge ones.
var tableIntervals = [][2]float64{
	{0, 1}, {-3, 5.5}, {2, 2 + 1e-9}, {1e6, 1e6 + 3}, {-1e-300, 1e-300},
	{7, -2}, {-1e300, 1e300}, {0.1, 0.7},
}

// TestNodeTableMatchesReference checks every node of all 13 levels:
// the table's abscissa pair and weight equal the reference node math
// at +t and −t bit for bit, and the levels visit the reference
// parameters in order.
func TestNodeTableMatchesReference(t *testing.T) {
	total := 0
	for lv := 0; lv <= maxLevel; lv++ {
		ns := levelTable(lv)
		ts := refLevelTs(lv)
		total += len(ns)
		if want := (len(ts) + 1) / 2; len(ns) != want {
			t.Fatalf("level %d: %d table nodes, want %d", lv, len(ns), want)
		}
		for _, ab := range tableIntervals {
			a, b := ab[0], ab[1]
			iv := newInterval(a, b)
			// Walk the reference order: t = 0 alone at level 0, then
			// pairs (+t, −t) sharing one table node.
			k, j := 0, 0
			if lv == 0 {
				left, _, w := iv.at(&ns[0])
				x0, w0 := refNode(0, a, b)
				if !sameBits(left, x0) || !sameBits(w, w0) {
					t.Fatalf("level 0 t=0 on [%g, %g]: (%v, %v), want (%v, %v)", a, b, left, w, x0, w0)
				}
				k, j = 1, 1
			}
			for ; k < len(ns); k, j = k+1, j+2 {
				left, right, w := iv.at(&ns[k])
				xr, wr := refNode(ts[j], a, b)
				xl, wl := refNode(ts[j+1], a, b)
				if !sameBits(right, xr) || !sameBits(left, xl) || !sameBits(w, wr) || !sameBits(w, wl) {
					t.Fatalf("level %d t=±%v on [%g, %g]: x=(%v, %v) w=%v, want x=(%v, %v) w=(%v, %v)",
						lv, ts[j], a, b, right, left, w, xr, xl, wr, wl)
				}
			}
		}
	}
	if total != 16385 {
		t.Fatalf("table holds %d nodes, want 16385", total)
	}
}

// TestRulesMatchReference checks both rules' results and errors
// against the reference rules, on converging integrands and on ones
// that run all 13 levels without converging.
func TestRulesMatchReference(t *testing.T) {
	fs := []struct {
		name string
		f    Func
	}{
		{"exp", math.Exp},
		{"log", math.Log},
		{"inv-sqrt", func(x float64) float64 { return 1 / math.Sqrt(math.Abs(x)) }},
		{"oscillating", func(x float64) float64 { return math.Sin(40*x) * math.Exp(-x*x/50) }},
		{"step", func(x float64) float64 { // never converges: O(h) error
			if x < 0.3 {
				return 1
			}
			return 0
		}},
		{"neg-quantile", func(u float64) float64 { return -math.Log1p(-u) }},
	}
	for _, f := range fs {
		for _, ab := range tableIntervals {
			for _, tol := range []float64{0, 1e-6, 1e-10, 1e-300} {
				checkRules(t, f.name, f.f, ab[0], ab[1], tol)
			}
		}
	}
	if _, err := TanhSinh(fs[4].f, 0, 1, 1e-12); err != ErrNoConvergence {
		t.Fatalf("step integrand: err %v, want ErrNoConvergence (all 13 levels)", err)
	}
}

// TestNodeTableConcurrentBuild rebuilds the table from empty while
// goroutines integrate with both rules through all 13 levels; under
// -race this checks the lazy build, and every goroutine must match
// the reference.
func TestNodeTableConcurrentBuild(t *testing.T) {
	levelOnce = [maxLevel + 1]sync.Once{}
	levelNodes = [maxLevel + 1][]node{}
	step := func(x float64) float64 {
		if x < 0.3 {
			return 1
		}
		return 0
	}
	want, _ := refTanhSinh(step, 0, 1, 1e-12)
	wantBatch, _ := refTanhSinhBatch(batchOf(step), 0, 1, 1e-12)
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for i := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				if got, _ := TanhSinh(step, 0, 1, 1e-12); !sameBits(got, want) {
					errs <- "TanhSinh"
				}
			} else if got, _ := TanhSinhBatch(batchOf(step), 0, 1, 1e-12); !sameBits(got, wantBatch) {
				errs <- "TanhSinhBatch"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for name := range errs {
		t.Errorf("%s differs from the reference under concurrent table build", name)
	}
}

// FuzzTanhSinh checks both rules against the reference node math on
// random finite intervals and a parameterised smooth integrand
// p·e^{q·x}·cos(r·x) + s.
func FuzzTanhSinh(f *testing.F) {
	f.Add(0.0, 1.0, 1.0, 0.5, 3.0, 0.0)
	f.Add(-2.5, 7.0, -0.3, -1.0, 0.0, 2.0)
	f.Add(1e6, 1e6+1, 2.0, 1e-3, 10.0, -1.0)
	f.Fuzz(func(t *testing.T, a, b, p, q, r, s float64) {
		for _, v := range []float64{a, b, p, q, r, s} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Skip()
			}
		}
		g := func(x float64) float64 { return p*math.Exp(q*x)*math.Cos(r*x) + s }
		checkRules(t, "fuzz", g, a, b, 1e-10)
	})
}
