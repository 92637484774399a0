// Package problems is the registry of benchmark problems: the
// paper's three instances (ALL-INTERVAL, MAGIC-SQUARE, COSTAS ARRAY)
// plus N-Queens, constructible by name for the CLIs and the
// experiment harness.
package problems

import (
	"fmt"

	"lasvegas/internal/csp"
	"lasvegas/internal/problems/allinterval"
	"lasvegas/internal/problems/costas"
	"lasvegas/internal/problems/magicsquare"
	"lasvegas/internal/problems/queens"
)

// Kind names a problem family.
type Kind string

// Problem families.
const (
	AllInterval Kind = "all-interval"
	MagicSquare Kind = "magic-square"
	Costas      Kind = "costas"
	Queens      Kind = "queens"
)

// New constructs a fresh instance of the named family. For
// MagicSquare, size is the board side (the number of variables is
// side²), matching the paper's "MS 200" naming.
func New(kind Kind, size int) (csp.Problem, error) {
	switch kind {
	case AllInterval:
		return allinterval.New(size)
	case MagicSquare:
		return magicsquare.New(size)
	case Costas:
		return costas.New(size)
	case Queens:
		return queens.New(size)
	}
	return nil, fmt.Errorf("problems: unknown kind %q", kind)
}

// PaperSize returns the instance size used in the paper's evaluation
// for the given family (AI 700, MS 200, Costas 21), and ok=false for
// families outside the paper.
func PaperSize(kind Kind) (int, bool) {
	switch kind {
	case AllInterval:
		return 700, true
	case MagicSquare:
		return 200, true
	case Costas:
		return 21, true
	}
	return 0, false
}

// DefaultSize returns the scaled-down default used by this
// repository's campaigns so that a full fit→predict→compare cycle
// runs in seconds (see DESIGN.md §3 on substitutions). The sizes are
// chosen so each run costs milliseconds while the iteration counts
// stay large enough (10³–10⁵) to treat as a continuous runtime
// distribution, which the §6 fits require.
func DefaultSize(kind Kind) int {
	switch kind {
	case AllInterval:
		return 16
	case MagicSquare:
		return 6
	case Costas:
		return 13
	case Queens:
		return 30
	}
	return 10
}
