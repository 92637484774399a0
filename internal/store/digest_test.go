package store

import (
	"fmt"
	"reflect"
	"testing"

	"lasvegas"
)

// TestRangeOwnersOwnedRangesInverse: self holds a copy of range r
// exactly when r lists self as an owner — the two ring walks are
// inverses, which is what lets each replica know both who to compare
// a range with and which ranges it must keep converged.
func TestRangeOwnersOwnedRangesInverse(t *testing.T) {
	for _, replicas := range []int{1, 2, 3, 5} {
		for k := 1; k <= replicas; k++ {
			holds := func(self, r int) bool {
				for _, o := range RangeOwners(r, replicas, k) {
					if o == self {
						return true
					}
				}
				return false
			}
			for self := 0; self < replicas; self++ {
				ranges := OwnedRanges(self, replicas, k)
				if len(ranges) != k {
					t.Fatalf("OwnedRanges(%d, %d, %d) has %d entries, want %d", self, replicas, k, len(ranges), k)
				}
				owned := map[int]bool{}
				for _, r := range ranges {
					owned[r] = true
				}
				for r := 0; r < replicas; r++ {
					if owned[r] != holds(self, r) {
						t.Errorf("n=%d k=%d: OwnedRanges(%d) says owned[%d]=%v but RangeOwners(%d)=%v",
							replicas, k, self, r, owned[r], r, RangeOwners(r, replicas, k))
					}
				}
			}
		}
	}
	// Owners and RangeOwners agree: an id's preference list is exactly
	// the owner list of its primary range.
	for i := 0; i < 50; i++ {
		id := idOfBytes([]byte(fmt.Sprintf("digest payload %d", i)))
		if got, want := Owners(id, 5, 3), RangeOwners(Owner(id, 5), 5, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("Owners(%q) = %v, RangeOwners(primary) = %v", id, got, want)
		}
	}
}

// TestBuildRangeDigestDeterministic: two stores holding the same
// campaigns — inserted in different orders — produce byte-identical
// digests for every range, every id lands in exactly one range's
// digest, and a store missing an id diverges only on that range.
func TestBuildRangeDigestDeterministic(t *testing.T) {
	const replicas = 3
	campaigns := make([]*lasvegas.Campaign, 12)
	for i := range campaigns {
		campaigns[i] = mkCampaign(uint64(i + 1))
	}
	a, b := NewMemory(64), NewMemory(64)
	for _, c := range campaigns {
		if _, err := a.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	for i := len(campaigns) - 1; i >= 0; i-- {
		if _, err := b.Add(campaigns[i]); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for r := 0; r < replicas; r++ {
		da, err := BuildRangeDigest(a, r, replicas, 0)
		if err != nil {
			t.Fatal(err)
		}
		db, err := BuildRangeDigest(b, r, replicas, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !da.Equal(db) {
			t.Fatalf("range %d: insertion order changed the digest:\n%+v\nvs\n%+v", r, da, db)
		}
		for _, id := range da.IDs {
			if Owner(id, replicas) != r {
				t.Fatalf("range %d digest contains foreign id %s (owner %d)", r, id, Owner(id, replicas))
			}
		}
		total += len(da.IDs)
	}
	if total != len(campaigns) {
		t.Fatalf("digests cover %d ids across ranges, want %d", total, len(campaigns))
	}

	// Drop one id from b and the digests must diverge on exactly its
	// range, with MissingIDs naming it.
	victim, _, err := Encode(campaigns[0])
	if err != nil {
		t.Fatal(err)
	}
	c := NewMemory(64)
	for _, cmp := range campaigns[1:] {
		if _, err := c.Add(cmp); err != nil {
			t.Fatal(err)
		}
	}
	victimRange := Owner(victim, replicas)
	for r := 0; r < replicas; r++ {
		da, _ := BuildRangeDigest(a, r, replicas, 0)
		dc, _ := BuildRangeDigest(c, r, replicas, 0)
		if r != victimRange {
			if !da.Equal(dc) {
				t.Errorf("range %d should be unaffected by dropping %s", r, victim)
			}
			continue
		}
		if da.Equal(dc) {
			t.Fatalf("range %d digest did not notice the missing id", r)
		}
		if missing := da.MissingIDs(dc); len(missing) != 1 || missing[0] != victim {
			t.Fatalf("MissingIDs = %v, want [%s]", missing, victim)
		}
		if extra := dc.MissingIDs(da); len(extra) != 0 {
			t.Fatalf("reverse MissingIDs = %v, want none", extra)
		}
	}
}

// TestBuildRangeDigestSkipsUnmergeable: a censored campaign (no
// runtime sketch exists for it) still appears in the id set but not
// in the pooled sketch, and both replicas apply the same skip rule —
// so mixed corpora still digest identically.
func TestBuildRangeDigestSkipsUnmergeable(t *testing.T) {
	censored := &lasvegas.Campaign{
		Problem: "x", Runs: 2, Budget: 5,
		Iterations: []float64{3, 5},
		Censored:   []int{1},
	}
	id, _, err := Encode(censored)
	if err != nil {
		t.Fatal(err)
	}
	st := NewMemory(8)
	if _, err := st.Add(censored); err != nil {
		t.Fatal(err)
	}
	d, err := BuildRangeDigest(st, Owner(id, 1), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.IDs) != 1 || d.IDs[0] != id {
		t.Fatalf("digest ids = %v, want [%s]", d.IDs, id)
	}
	if len(d.Sketch) != 0 {
		t.Fatalf("censored-only range grew a sketch: %s", d.Sketch)
	}

	// Adding a mergeable campaign pools only the mergeable mass, and
	// the sketch matches a direct RuntimeSketch of that campaign.
	clean := mkCampaign(7)
	if _, err := st.Add(clean); err != nil {
		t.Fatal(err)
	}
	d2, err := BuildRangeDigest(st, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(d2.IDs) != 2 {
		t.Fatalf("digest ids = %v, want both campaigns", d2.IDs)
	}
	want, err := clean.RuntimeSketch(0)
	if err != nil {
		t.Fatal(err)
	}
	wantRaw, err := want.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(d2.Sketch) != string(wantRaw) {
		t.Fatalf("pooled sketch includes unmergeable mass:\n%s\nwant\n%s", d2.Sketch, wantRaw)
	}
}
