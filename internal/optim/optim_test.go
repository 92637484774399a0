package optim

import (
	"errors"
	"math"
	"testing"
)

func TestBrentRootSimple(t *testing.T) {
	x, err := BrentRoot(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Sqrt2) > 1e-12 {
		t.Fatalf("root %v, want √2", x)
	}
}

func TestBrentRootCos(t *testing.T) {
	x, err := BrentRoot(math.Cos, 1, 2, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-math.Pi/2) > 1e-12 {
		t.Fatalf("root %v, want π/2", x)
	}
}

func TestBrentRootEndpointRoot(t *testing.T) {
	x, err := BrentRoot(func(x float64) float64 { return x }, 0, 1, 1e-12)
	if err != nil || x != 0 {
		t.Fatalf("got %v, %v", x, err)
	}
}

func TestBrentRootNoBracket(t *testing.T) {
	_, err := BrentRoot(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-12)
	if !errors.Is(err, ErrBracket) {
		t.Fatalf("want ErrBracket, got %v", err)
	}
}

func TestBrentRootSteepFunction(t *testing.T) {
	// Root of e^{50x} - 1 at x=0 inside [-1, 0.5].
	x, err := BrentRoot(func(x float64) float64 { return math.Exp(50*x) - 1 }, -1, 0.5, 1e-14)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x) > 1e-10 {
		t.Fatalf("root %v, want 0", x)
	}
}

func TestBrentMinParabola(t *testing.T) {
	x, err := BrentMin(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-3) > 1e-6 {
		t.Fatalf("minimizer %v, want 3", x)
	}
}

func TestBrentMinAsymmetric(t *testing.T) {
	// min of x - ln(x) at x=1.
	x, err := BrentMin(func(x float64) float64 { return x - math.Log(x) }, 0.01, 10, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x-1) > 1e-6 {
		t.Fatalf("minimizer %v, want 1", x)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	rosen := func(p []float64) float64 {
		x, y := p[0], p[1]
		return (1-x)*(1-x) + 100*(y-x*x)*(y-x*x)
	}
	x, fx, err := NelderMead(rosen, []float64{-1.2, 1}, []float64{0.5, 0.5}, 1e-14, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-3 || math.Abs(x[1]-1) > 1e-3 {
		t.Fatalf("minimizer %v (f=%v), want (1,1)", x, fx)
	}
}

func TestNelderMeadQuadratic3D(t *testing.T) {
	f := func(p []float64) float64 {
		return (p[0]-1)*(p[0]-1) + 2*(p[1]+2)*(p[1]+2) + 0.5*(p[2]-4)*(p[2]-4)
	}
	x, _, err := NelderMead(f, []float64{0, 0, 0}, []float64{1, 1, 1}, 1e-14, 5000)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, -2, 4}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-4 {
			t.Fatalf("dim %d: %v, want %v", i, x[i], want[i])
		}
	}
}

func TestNelderMeadBadInput(t *testing.T) {
	if _, _, err := NelderMead(func(p []float64) float64 { return 0 }, nil, nil, 1e-10, 100); err == nil {
		t.Fatal("empty input should error")
	}
	if _, _, err := NelderMead(func(p []float64) float64 { return 0 }, []float64{1}, []float64{1, 2}, 1e-10, 100); err == nil {
		t.Fatal("mismatched step length should error")
	}
}
