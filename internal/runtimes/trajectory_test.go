package runtimes

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lasvegas/internal/adaptive"
	"lasvegas/internal/csp"
	"lasvegas/internal/problems"
)

var update = flag.Bool("update", false, "rewrite testdata/trajectories.golden")

// TestFixedSeedTrajectories pins the solver's trajectories across
// builds: the per-run iteration counts of fixed-seed campaigns on
// every problem family must match the committed golden exactly. Any
// change in how the solver consumes its random stream (tie-break
// draws, tabu or zero-error skips, scan order) or in the cost model
// shows up here. Regenerate only for an intended change of trajectory:
//
//	go test ./internal/runtimes -run TestFixedSeedTrajectories -update
func TestFixedSeedTrajectories(t *testing.T) {
	const runs = 40
	cases := []struct {
		kind problems.Kind
		size int
	}{
		{problems.AllInterval, 14},
		{problems.MagicSquare, 5},
		{problems.Costas, 10},
		{problems.Queens, 30},
	}
	var got bytes.Buffer
	for _, seed := range []uint64{1, 2, 3} {
		for _, c := range cases {
			factory := func() (csp.Problem, error) { return problems.New(c.kind, c.size) }
			camp, err := Collect(context.Background(), factory, adaptive.Params{}, runs, seed, 2)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&got, "%s seed=%d", camp.Problem, seed)
			for _, it := range camp.Iterations {
				fmt.Fprintf(&got, " %d", int64(it))
			}
			got.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "trajectories.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d trajectories, %s has %d", len(gotLines)-1, path, len(wantLines)-1)
	}
	for i, line := range gotLines {
		if !bytes.Equal(line, wantLines[i]) {
			t.Fatalf("trajectory %d differs from %s:\n got: %s\nwant: %s", i, path, line, wantLines[i])
		}
	}
}
