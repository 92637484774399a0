package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lasvegas"
	"lasvegas/internal/store"
)

// poll retries cond until it holds or the deadline passes.
func poll(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", timeout, what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// TestAntiEntropyHealsQuarantinedHintLog is the tentpole's end-to-end
// proof at the in-process level: a write is accepted while a peer
// owner is down, then the hinting replica's hint log is corrupted —
// the exact failure hinted handoff cannot cover. The replica must
// still boot (quarantining the log instead of bricking), and the peer
// must converge through the background digest exchange alone: no
// client read ever touches the missing copy before it appears.
func TestAntiEntropyHealsQuarantinedHintLog(t *testing.T) {
	dir := t.TempDir()
	g := newGroup(t, 2, 2, Config{DataDir: dir, AntiEntropyInterval: 50 * time.Millisecond})

	g.kill(1)
	id := g.uploadSynth(0, synthCampaign(t, 9))
	if got := g.health(0).Hints; got != 1 {
		t.Fatalf("hints = %d after writing past the dead peer, want 1", got)
	}

	// The hinting replica goes down and its hint log rots: every
	// record is complete but unparseable.
	g.kill(0)
	hintPath := filepath.Join(dir, "replica0", "hints.log")
	if err := os.WriteFile(hintPath, []byte("rotten bits, not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	g.restart(0) // pre-quarantine this refused to boot
	hr := g.health(0)
	if !hr.HintsQuarantined {
		t.Fatal("healthz hints_quarantined = false after booting on a corrupt hint log")
	}
	if hr.Hints != 0 {
		t.Fatalf("hints = %d after quarantine, want 0 (the promise is lost, not pending)", hr.Hints)
	}
	if hr.AntiEntropy == nil {
		t.Fatal("healthz anti_entropy missing while the exchanger is configured")
	}

	// The peer returns. Handoff cannot help it (the hint is gone);
	// only the digest exchange can. healthz polling is not a campaign
	// read, so nothing here can trigger read-repair.
	g.restart(1)
	// The pulled copy is visible as soon as it is stored, but the
	// round's counters are only added when the round finishes: wait
	// for both before reading the counters.
	poll(t, 10*time.Second, "anti-entropy to restore the lost copy", func() bool {
		hr := g.health(1)
		return hr.Campaigns == 1 && hr.AntiEntropy != nil && hr.AntiEntropy.Rounds >= 1
	})
	ae := g.health(1).AntiEntropy
	if ae == nil || ae.Pulled < 1 || ae.Rounds < 1 {
		t.Fatalf("healthz anti_entropy = %+v, want ≥1 round and ≥1 pull", ae)
	}

	// Converged means byte-identical answers from both owners.
	var answers [2][]byte
	for i := range answers {
		status, resp := g.do(i, "GET", "/v1/predict?id="+id+"&cores=4,16", nil)
		if status != http.StatusOK {
			t.Fatalf("predict via replica %d: status %d, body %s", i, status, resp)
		}
		answers[i] = resp
	}
	if !bytes.Equal(answers[0], answers[1]) {
		t.Errorf("answers diverge after anti-entropy:\n%s\nvs\n%s", answers[0], answers[1])
	}
}

// TestAntiEntropySchemaMix: digest diffing is by content id, so a
// sketch-backed (schema 3) campaign and the raw (schema 2) campaign
// it came from are two distinct ids that both replicate — one side
// holding only the raw copy and the other only the sketched one must
// exchange both, and end byte-identical on every range digest.
func TestAntiEntropySchemaMix(t *testing.T) {
	g := newGroup(t, 2, 2, Config{AntiEntropyInterval: -1}) // rounds run by hand
	raw := &lasvegas.Campaign{}
	if err := json.Unmarshal(synthCampaign(t, 11), raw); err != nil {
		t.Fatal(err)
	}
	sketched, err := raw.Sketchify(0)
	if err != nil {
		t.Fatal(err)
	}
	rawID, rawBytes, err := store.Encode(raw)
	if err != nil {
		t.Fatal(err)
	}
	skID, skBytes, err := store.Encode(sketched)
	if err != nil {
		t.Fatal(err)
	}
	if rawID == skID {
		t.Fatal("schema-2 and schema-3 copies share an id; the test premise is broken")
	}
	// Plant the asymmetry directly in the stores: replica 0 holds only
	// the raw copy, replica 1 only the sketched one.
	if _, err := g.srv[0].store.AddEncoded(rawID, rawBytes, raw); err != nil {
		t.Fatal(err)
	}
	if _, err := g.srv[1].store.AddEncoded(skID, skBytes, sketched); err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if pulled := g.srv[0].antiEntropyRound(ctx); pulled != 1 {
		t.Fatalf("replica 0 pulled %d campaigns, want the sketched copy", pulled)
	}
	if pulled := g.srv[1].antiEntropyRound(ctx); pulled != 1 {
		t.Fatalf("replica 1 pulled %d campaigns, want the raw copy", pulled)
	}
	for i := range g.srv {
		if got := g.srv[i].store.Len(); got != 2 {
			t.Fatalf("replica %d holds %d campaigns after exchange, want both schemas", i, got)
		}
	}
	// Fully converged: every range digest is byte-identical across the
	// replicas, sketch fingerprint included (the raw copy folds at the
	// same capacity the schema-3 copy was sketched at).
	for r := 0; r < 2; r++ {
		d0, err := store.BuildRangeDigest(g.srv[0].store, r, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		d1, err := store.BuildRangeDigest(g.srv[1].store, r, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !d0.Equal(d1) {
			t.Errorf("range %d digests diverge after exchange:\n%+v\nvs\n%+v", r, d0, d1)
		}
	}
	// And another round in either direction is a no-op.
	if pulled := g.srv[0].antiEntropyRound(ctx); pulled != 0 {
		t.Errorf("converged replica 0 still pulled %d campaigns", pulled)
	}
}

// TestInternalDigestEndpoint locks the wire shape peers rely on: the
// digest covers exactly the requested range's resident ids, and a bad
// range parameter is a 400, not a panic or an empty digest.
func TestInternalDigestEndpoint(t *testing.T) {
	g := newGroup(t, 2, 2, Config{AntiEntropyInterval: -1})
	id := g.uploadSynth(0, synthCampaign(t, 12))
	rg := store.Owner(id, 2)
	status, body := g.do(0, "GET", fmt.Sprintf("/v1/internal/digest?range=%d", rg), nil)
	if status != http.StatusOK {
		t.Fatalf("digest: status %d, body %s", status, body)
	}
	var d store.Digest
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Range != rg || len(d.IDs) != 1 || d.IDs[0] != id {
		t.Fatalf("digest = %+v, want range %d holding exactly %s", d, rg, id)
	}
	if len(d.Sketch) == 0 {
		t.Error("digest of a complete campaign carries no sketch fingerprint")
	}
	for _, bad := range []string{"", "x", "-1", "2"} {
		status, _ := g.do(0, "GET", "/v1/internal/digest?range="+bad, nil)
		if status != http.StatusBadRequest {
			t.Errorf("digest range=%q: status %d, want 400", bad, status)
		}
	}
}
