package lasvegas_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"lasvegas"
)

// TestWorkersDoNotChangeResults: FitAll and PolicyTable spread their
// families, replays and bootstraps over WithWorkers goroutines, and
// every task keeps its own seed and slot, so one worker and four give
// the same bits on a raw campaign (default and all families), a
// 20k-run sketch-backed stream and the censored Costas fixture.
func TestWorkersDoNotChangeResults(t *testing.T) {
	raw, err := lasvegas.LoadCampaign("testdata/campaign_costas13.json")
	if err != nil {
		t.Fatal(err)
	}
	censored, err := lasvegas.LoadCampaign(censoredFixture)
	if err != nil {
		t.Fatal(err)
	}
	stream := lognormalStream(t, 20_000)
	cases := []struct {
		name string
		c    *lasvegas.Campaign
		fams []lasvegas.Family
	}{
		{"raw", raw, nil},
		{"raw/all-families", raw, lasvegas.AllFamilies()},
		{"sketch-20k", stream, nil},
		{"censored", censored, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var got [2]string
			for i, w := range []int{1, 4} {
				opts := []lasvegas.Option{lasvegas.WithCensoredFit(true), lasvegas.WithWorkers(w), lasvegas.WithSeed(7)}
				if tc.fams != nil {
					opts = append(opts, lasvegas.WithFamilies(tc.fams...))
				}
				p := lasvegas.New(opts...)
				cands, err := p.FitAll(tc.c)
				if err != nil {
					t.Fatal(err)
				}
				table, err := p.PolicyTable(context.Background(), tc.c, nil)
				if err != nil {
					t.Fatal(err)
				}
				got[i] = candidateBits(t, cands) + tableBits(table)
			}
			if got[0] != got[1] {
				t.Errorf("WithWorkers(1) and WithWorkers(4) differ:\n%s\nvs\n%s", got[0], got[1])
			}
		})
	}
}

// candidateBits renders a candidate table with every float as its
// bits.
func candidateBits(t *testing.T, cands []lasvegas.Candidate) string {
	t.Helper()
	var b strings.Builder
	for _, c := range cands {
		fmt.Fprintf(&b, "%s law=%q err=%v ks=%s ad=%s/%v loglik=%x/%v",
			c.Family, c.Law, c.Err, gofBits(c.KS), gofBits(c.AD), c.ADValid, math.Float64bits(c.LogLik), c.LogLikValid)
		if c.Model != nil {
			js, err := c.Model.MarshalJSON()
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, " model=%s", js)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func gofBits(g lasvegas.GoodnessOfFit) string {
	return fmt.Sprintf("%x/%x/%d", math.Float64bits(g.Stat), math.Float64bits(g.PValue), g.N)
}

// tableBits renders a policy table with every float as its bits.
func tableBits(tb *lasvegas.PolicyTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "winner=%s law=%s est=%s level=%x reps=%d resamples=%d\n",
		tb.Winner, tb.Law, tb.Estimator, math.Float64bits(tb.Level), tb.Reps, tb.Resamples)
	for _, r := range tb.Rows {
		fmt.Fprintf(&b, "%s", r.Policy)
		for _, x := range []float64{r.Cutoff, r.Unit, r.Expected, r.Simulated, r.StdErr, r.Lo, r.Hi, r.Gain} {
			fmt.Fprintf(&b, " %x", math.Float64bits(x))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// cancelAfter is a context that reports itself cancelled from its
// (n+1)th Err call on, and counts the calls.
type cancelAfter struct {
	context.Context
	n     int32
	calls atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.n {
		return context.Canceled
	}
	return nil
}

// TestPolicyTableCancelledMidTable: once ctx is cancelled after the
// first replay has started, PolicyTable returns the cancellation, and
// no more replays or bootstraps start than the workers had already
// claimed — each checks ctx before it runs.
func TestPolicyTableCancelledMidTable(t *testing.T) {
	c := lognormalStream(t, 20_000)
	for _, w := range []int{1, 4} {
		p := lasvegas.New(lasvegas.WithWorkers(w))
		m, err := p.Fit(c)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &cancelAfter{Context: context.Background(), n: 1}
		table, err := p.PolicyTable(ctx, c, m)
		if !errors.Is(err, context.Canceled) || table != nil {
			t.Fatalf("workers %d: PolicyTable = %v, %v; want context.Canceled", w, table, err)
		}
		if calls := int(ctx.calls.Load()); calls > 1+w {
			t.Errorf("workers %d: %d replays and bootstraps started after cancellation, want ≤ %d", w, calls-1, w)
		}
	}
}
