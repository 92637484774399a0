package lasvegas

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// FuzzCampaignCodec holds the campaign codec's sketch splice to the
// plain encoding/json codec it replaced (legacyMarshalCampaign and
// legacyUnmarshalCampaign below). MarshalJSON must write the same
// bytes for every campaign — raw runs, a sketch or both, seconds,
// censoring, and metadata whose keys and values spell the sketch key —
// and UnmarshalJSON must give the same campaign or the same error for
// the canonical bytes, for variants that must leave the split
// (whitespace, a duplicate or re-cased sketch key, no sketch) and for
// the raw fuzz bytes.
func FuzzCampaignCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{1, 2, 3, 4, 5}, uint8(1))
	f.Add([]byte{9, 9, 9, 200, 7, 7}, uint8(2|4))
	f.Add(bytes.Repeat([]byte{3, 250, 17, 17, 4}, 60), uint8(1|8))
	f.Add([]byte{5, 6}, uint8(2|16))
	f.Add([]byte(`{"schema":3,"problem":"p","runs":1,"seed":1,"iterations":null,"metadata":{"a":"b","sketch":"c"}}`), uint8(32))
	f.Add([]byte(`{"schema":3,"problem":"p","runs":1,"seed":1,"iterations":null,"sketch":{"v":1,"k":8,"n":1,"min":2,"max":2,"levels":[[2]],"compactions":[0]},"sketch":{"v":1,"k":8,"n":1,"min":3,"max":3,"levels":[[3]],"compactions":[0]}}`), uint8(32))
	f.Add([]byte(`{"schema":3,"problem":"p","runs":1,"seed":1,"iterations":null,"Sketch":{"v":1,"k":8,"n":1,"min":2,"max":2,"levels":[[2]],"compactions":[0]},"sketch":null}`), uint8(32))
	f.Add([]byte(` {"schema":3,"problem":"p","runs":1,"seed":1,"iterations":null , "sketch":{"v":1,"k":8,"n":1,"min":2,"max":2,"levels":[[2]],"compactions":[0]} }`), uint8(32))
	f.Add([]byte(`{,"sketch":{"v":1,"k":8,"n":1,"min":2,"max":2,"levels":[[2]],"compactions":[0]}}`), uint8(32))
	f.Add([]byte(`{"schema":4,"problem":"p","runs":1,"iterations":[1],"sketch":{"v":1,"k":8,"n":1,"min":2,"max":2,"levels":[[2]],"compactions":[0]}}`), uint8(32))

	f.Fuzz(func(t *testing.T, data []byte, shape uint8) {
		c := fuzzCampaign(t, data, shape)
		got, gerr := c.MarshalJSON()
		want, werr := legacyMarshalCampaign(c)
		if (gerr != nil) != (werr != nil) || !bytes.Equal(got, want) {
			t.Fatalf("MarshalJSON = %s, %v; encoding/json %s, %v", got, gerr, want, werr)
		}
		inputs := [][]byte{data}
		if gerr == nil {
			s := string(got)
			inputs = append(inputs, got,
				[]byte(" "+s+"\n"),
				[]byte(strings.Replace(s, sketchKey, `, "sketch" : `, 1)),
				[]byte(strings.Replace(s, sketchKey, `,"Sketch":`, 1)),
				[]byte(strings.Replace(s, `{"schema"`, `{"sketch":null,"schema"`, 1)),
				[]byte(strings.Replace(s, `{"schema"`, `{"sketch":{"v":1,"k":8,"n":1,"min":5,"max":5,"levels":[[5]],"compactions":[0]},"schema"`, 1)),
			)
		}
		for _, in := range inputs {
			var back Campaign
			berr := back.UnmarshalJSON(in)
			ref, rerr := legacyUnmarshalCampaign(in)
			if berr != nil || rerr != nil {
				if berr == nil || rerr == nil || berr.Error() != rerr.Error() {
					t.Fatalf("decoding %s: error %v, encoding/json %v", in, berr, rerr)
				}
				continue
			}
			b1, err1 := legacyMarshalCampaign(&back)
			b2, err2 := legacyMarshalCampaign(ref)
			if err1 != nil || err2 != nil || !bytes.Equal(b1, b2) {
				t.Fatalf("decoding %s gives %s (%v), encoding/json %s (%v)", in, b1, err1, b2, err2)
			}
		}
	})
}

// fuzzCampaign builds a campaign from fuzz bytes: shape bit 0 keeps
// raw runs, bit 1 adds a sketch, bit 2 adds seconds, bit 3 censors
// the first raw run, bit 4 adds metadata spelling the sketch key.
func fuzzCampaign(t *testing.T, data []byte, shape uint8) *Campaign {
	t.Helper()
	c := &Campaign{Problem: "fuzz", Size: len(data), Runs: len(data), Seed: uint64(shape)}
	var sk *Sketch
	if shape&2 != 0 {
		var err error
		if sk, err = NewSketch(8); err != nil {
			t.Fatal(err)
		}
	}
	for i, b := range data {
		x := float64(b) + float64(i%3)/4
		switch {
		case sk != nil && (shape&1 == 0 || i%2 == 1):
			if err := sk.Add(x); err != nil {
				t.Fatal(err)
			}
		default:
			c.Iterations = append(c.Iterations, x)
			if shape&4 != 0 {
				c.Seconds = append(c.Seconds, x/1000)
			}
		}
	}
	if sk != nil && sk.N() > 0 {
		c.Sketch = sk
	}
	if shape&8 != 0 && len(c.Iterations) > 0 && c.Sketch == nil {
		c.Censored, c.Budget = []int{0}, 1000
	}
	if shape&16 != 0 {
		c.Metadata = map[string]string{
			"a":                 `,"sketch":`,
			"sketch":            fmt.Sprint(len(data)),
			`x,"sketch":{"v":1`: "<&>",
		}
	}
	return c
}

// legacyMarshalCampaign is MarshalJSON before the sketch splice: the
// whole wire form through encoding/json.
func legacyMarshalCampaign(c *Campaign) ([]byte, error) {
	schema := campaignSchemaRaw
	if c.Sketch != nil {
		schema = CampaignSchemaVersion
	}
	iterations := c.Iterations
	if len(iterations) == 0 {
		iterations = nil
	}
	return json.Marshal(campaignJSON{
		Schema: schema, Problem: c.Problem, Size: c.Size, Runs: c.Runs, Seed: c.Seed,
		Budget: c.Budget, Iterations: iterations, Seconds: c.Seconds, Censored: c.Censored,
		Metadata: c.Metadata, Sketch: c.Sketch,
	})
}

// legacyUnmarshalCampaign is UnmarshalJSON before the sketch split:
// encoding/json validates and decodes the whole value.
func legacyUnmarshalCampaign(data []byte) (*Campaign, error) {
	var j campaignJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return nil, err
	}
	if j.Schema > CampaignSchemaVersion {
		return nil, fmt.Errorf("%w: file has schema %d, this release reads ≤ %d",
			ErrSchema, j.Schema, CampaignSchemaVersion)
	}
	c := &Campaign{
		Problem: j.Problem, Size: j.Size, Runs: j.Runs, Seed: j.Seed, Budget: j.Budget,
		Iterations: j.Iterations, Seconds: j.Seconds, Censored: j.Censored,
		Metadata: j.Metadata, Sketch: j.Sketch,
	}
	return c, c.validate()
}
