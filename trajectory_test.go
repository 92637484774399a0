package lasvegas_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"lasvegas"
)

// updateTrajectories rewrites testdata/trajectories.golden
// (UPDATE_TRAJECTORIES=1 go test -run TestFixedSeedTrajectories).
var updateTrajectories = os.Getenv("UPDATE_TRAJECTORIES") != ""

// TestFixedSeedTrajectories pins the solver's trajectories across
// builds: the per-run iteration counts of fixed-seed campaigns on
// every CSP family must match the committed golden exactly. Any change
// in how the solver consumes its random stream (tie-break draws, tabu
// or zero-error skips, scan order) or in the cost model shows up here.
// Every campaign is collected three ways that must agree: whole, as
// three merged WithShard blocks, and under a WithBudget no run
// reaches. Regenerate only for an intended change of trajectory.
func TestFixedSeedTrajectories(t *testing.T) {
	const runs, budget = 40, 1 << 20
	ctx := context.Background()
	cases := []struct {
		prob lasvegas.Problem
		size int
	}{
		{lasvegas.AllInterval, 14},
		{lasvegas.MagicSquare, 5},
		{lasvegas.Costas, 10},
		{lasvegas.Queens, 30},
	}
	collect := func(seed uint64, prob lasvegas.Problem, size int, opts ...lasvegas.Option) *lasvegas.Campaign {
		t.Helper()
		p := lasvegas.New(append([]lasvegas.Option{
			lasvegas.WithRuns(runs), lasvegas.WithSeed(seed), lasvegas.WithWorkers(2),
		}, opts...)...)
		c, err := p.Collect(ctx, prob, size)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ways := []struct {
		name    string
		collect func(seed uint64, prob lasvegas.Problem, size int) *lasvegas.Campaign
	}{
		{"unsharded", func(seed uint64, prob lasvegas.Problem, size int) *lasvegas.Campaign {
			return collect(seed, prob, size)
		}},
		{"3 merged shards", func(seed uint64, prob lasvegas.Problem, size int) *lasvegas.Campaign {
			var shards []*lasvegas.Campaign
			for i := 0; i < 3; i++ {
				shards = append(shards, collect(seed, prob, size, lasvegas.WithShard(i, 3)))
			}
			c, err := lasvegas.MergeCampaigns(shards...)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{"unreached budget", func(seed uint64, prob lasvegas.Problem, size int) *lasvegas.Campaign {
			c := collect(seed, prob, size, lasvegas.WithBudget(budget))
			if c.IsCensored() {
				t.Errorf("%s seed=%d: runs %v censored under a %d-iteration budget", c.Problem, seed, c.Censored, budget)
			}
			return c
		}},
	}
	path := filepath.Join("testdata", "trajectories.golden")
	for _, way := range ways {
		var got bytes.Buffer
		for _, seed := range []uint64{1, 2, 3} {
			for _, tc := range cases {
				c := way.collect(seed, tc.prob, tc.size)
				fmt.Fprintf(&got, "%s seed=%d", c.Problem, seed)
				for _, it := range c.Iterations {
					fmt.Fprintf(&got, " %d", int64(it))
				}
				got.WriteByte('\n')
			}
		}
		if updateTrajectories && way.name == "unsharded" {
			if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden (run with UPDATE_TRAJECTORIES=1 to create): %v", err)
		}
		gotLines := bytes.Split(got.Bytes(), []byte("\n"))
		wantLines := bytes.Split(want, []byte("\n"))
		if len(gotLines) != len(wantLines) {
			t.Fatalf("%s: %d trajectories, %s has %d", way.name, len(gotLines)-1, path, len(wantLines)-1)
		}
		for i, line := range gotLines {
			if !bytes.Equal(line, wantLines[i]) {
				t.Fatalf("%s: trajectory %d differs from %s:\n got: %s\nwant: %s", way.name, i, path, line, wantLines[i])
			}
		}
	}
}
