package lasvegas

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"

	"lasvegas/internal/stats"
)

// CampaignSchemaVersion is the newest JSON schema version this
// release reads and writes. Version 1 is the legacy header-less
// format of early lvseq files (problem/runs/seed/iterations/seconds
// only); version 2 adds the schema marker, instance size, per-run
// censoring flags, the censoring budget and free-form metadata;
// version 3 adds the sketch-backed representation (a mergeable
// quantile sketch instead of, or alongside, raw runs). Readers accept
// every version up to this one; writers emit the lowest version able
// to carry the campaign (campaigns without a sketch still serialize
// as version 2), so the canonical bytes — and the content-addressed
// ids lvserve derives from them — of pre-sketch campaigns are
// unchanged.
const CampaignSchemaVersion = 3

// campaignSchemaRaw is the schema version written for campaigns
// without a sketch (the version-2 wire form, kept byte-stable).
const campaignSchemaRaw = 2

// Campaign is a sequential runtime sample of one Las Vegas solver on
// one problem instance — the paper's §5.4 unit of measurement (~650
// runs per benchmark) and the input of every fit and prediction.
type Campaign struct {
	// Problem is the instance label, e.g. "costas-13" or "sat-3-120".
	Problem string
	// Size is the instance size the campaign was collected at
	// (0 when unknown, e.g. legacy files).
	Size int
	// Runs is the number of sequential runs.
	Runs int
	// Seed is the root seed the per-run random streams derive from.
	Seed uint64
	// Iterations holds per-run iteration counts, the paper's
	// scheduling-insensitive runtime measure. For censored runs the
	// entry is the budget at which the run was cut off.
	Iterations []float64
	// Seconds holds per-run wall-clock seconds (may be empty, e.g.
	// campaigns loaded from CSV).
	Seconds []float64
	// Censored lists the indices of runs cut off by the iteration
	// budget before finding a solution. Empty for complete campaigns.
	Censored []int
	// Budget is the per-run iteration budget the censored runs hit
	// (0 = unbounded, the pure Las Vegas setting).
	Budget int64
	// Metadata carries free-form campaign annotations (solver tag,
	// host, experiment name, ...). Keys starting with "lasvegas." are
	// reserved for the library.
	Metadata map[string]string
	// Sketch holds the runs folded into a mergeable quantile sketch —
	// the O(k·log(n/k))-memory representation NDJSON streaming ingest
	// produces. It covers runs *not* listed in Iterations, so
	// TotalRuns() = len(Iterations) + Sketch.N(); a campaign may carry
	// raw runs, a sketch, or both. Sketch-backed campaigns must be
	// complete (censoring flags cannot be folded into a sketch).
	Sketch *Sketch
}

// campaignJSON is the on-disk schema (all versions).
type campaignJSON struct {
	Schema     int               `json:"schema,omitempty"`
	Problem    string            `json:"problem"`
	Size       int               `json:"size,omitempty"`
	Runs       int               `json:"runs"`
	Seed       uint64            `json:"seed"`
	Budget     int64             `json:"budget,omitempty"`
	Iterations []float64         `json:"iterations"`
	Seconds    []float64         `json:"seconds,omitempty"`
	Censored   []int             `json:"censored,omitempty"`
	Metadata   map[string]string `json:"metadata,omitempty"`
	Sketch     *Sketch           `json:"sketch,omitempty"`
}

// MarshalJSON implements json.Marshaler, writing the lowest schema
// version able to carry the campaign (see CampaignSchemaVersion).
// Value receiver so that both Campaign and *Campaign serialize
// identically (a pointer-only marshaler would silently emit untagged
// fields for non-addressable values).
//
// The sketch, the last field, is spliced in as Sketch.MarshalJSON
// writes it: those bytes are compact and hold only numbers, so they
// are what encoding/json would have written after re-validating them.
func (c Campaign) MarshalJSON() ([]byte, error) {
	schema := campaignSchemaRaw
	if c.Sketch != nil {
		schema = CampaignSchemaVersion
	}
	iterations := c.Iterations
	if len(iterations) == 0 {
		// Canonical form: an empty raw sample is always null, never [],
		// so equal campaigns marshal to equal bytes (and equal ids)
		// whether their empty slice is nil or allocated.
		iterations = nil
	}
	data, err := json.Marshal(campaignJSON{
		Schema:     schema,
		Problem:    c.Problem,
		Size:       c.Size,
		Runs:       c.Runs,
		Seed:       c.Seed,
		Budget:     c.Budget,
		Iterations: iterations,
		Seconds:    c.Seconds,
		Censored:   c.Censored,
		Metadata:   c.Metadata,
	})
	if err != nil || c.Sketch == nil {
		return data, err
	}
	sk, err := c.Sketch.MarshalJSON()
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(data)+len(sketchKey)+len(sk))
	out = append(out, data[:len(data)-1]...)
	out = append(out, sketchKey...)
	out = append(out, sk...)
	return append(out, '}'), nil
}

// sketchKey introduces the sketch, the last field of the canonical
// campaign JSON.
const sketchKey = `,"sketch":`

// UnmarshalJSON implements json.Unmarshaler. A missing schema field
// denotes version 1 (legacy lvseq files); versions newer than
// CampaignSchemaVersion fail with ErrSchema.
func (c *Campaign) UnmarshalJSON(data []byte) error {
	var j campaignJSON
	if !splitSketch(data, &j) {
		j = campaignJSON{}
		if err := json.Unmarshal(data, &j); err != nil {
			return err
		}
	}
	if j.Schema > CampaignSchemaVersion {
		return fmt.Errorf("%w: file has schema %d, this release reads ≤ %d",
			ErrSchema, j.Schema, CampaignSchemaVersion)
	}
	*c = Campaign{
		Problem:    j.Problem,
		Size:       j.Size,
		Runs:       j.Runs,
		Seed:       j.Seed,
		Budget:     j.Budget,
		Iterations: j.Iterations,
		Seconds:    j.Seconds,
		Censored:   j.Censored,
		Metadata:   j.Metadata,
		Sketch:     j.Sketch,
	}
	return c.validate()
}

// splitSketch decodes the shape MarshalJSON writes for a sketch-backed
// campaign, an object whose last member is the sketch, with the
// sketch's own decoder, so its values are scanned once rather than
// validated first and decoded after. The split is at the first
// `,"sketch":{`, which in that shape can only be the sketch member:
// metadata values are strings. It reports false, having maybe filled
// j partly, on any data whose object without the sketch member does
// not decode, whose sketch does not decode, or whose other members
// already set the sketch (a duplicate key); such data takes the
// encoding/json path, which then gives the same result or error it
// always did.
func splitSketch(data []byte, j *campaignJSON) bool {
	i := bytes.Index(data, []byte(sketchKey+"{"))
	if i < 0 || data[len(data)-1] != '}' {
		return false
	}
	head := bytes.TrimRight(data[:i], " \t\r\n")
	sk := data[i+len(sketchKey) : len(data)-1]
	if len(head) == 0 || head[len(head)-1] == '{' {
		return false
	}
	// The head is closed in a copy, leaving data as it was.
	if json.Unmarshal(append(head[:len(head):len(head)], '}'), j) != nil || j.Sketch != nil {
		return false
	}
	j.Sketch = new(Sketch)
	return j.Sketch.UnmarshalJSON(sk) == nil
}

func (c *Campaign) validate() error {
	if c.TotalRuns() == 0 {
		return ErrEmptyCampaign
	}
	if c.Sketch != nil && c.Sketch.N() == 0 {
		return fmt.Errorf("lasvegas: campaign carries an empty sketch")
	}
	if c.Sketch != nil && len(c.Censored) > 0 {
		return fmt.Errorf("lasvegas: sketch-backed campaign with censored runs (a sketch stores values, not censoring flags)")
	}
	for _, i := range c.Censored {
		if i < 0 || i >= len(c.Iterations) {
			return fmt.Errorf("lasvegas: censored index %d out of range (%d observations)", i, len(c.Iterations))
		}
	}
	return nil
}

// WriteJSON writes the campaign to w in the current schema version,
// indented like the files lvseq produces.
func (c *Campaign) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// SaveJSON writes the campaign to path (see WriteJSON).
func (c *Campaign) SaveJSON(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadCampaign parses a campaign from r, accepting every schema
// version up to CampaignSchemaVersion.
func ReadCampaign(r io.Reader) (*Campaign, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	c := &Campaign{}
	if err := json.Unmarshal(data, c); err != nil {
		return nil, err
	}
	return c, nil
}

// LoadCampaign reads a campaign file written by SaveJSON (any schema
// version).
func LoadCampaign(path string) (*Campaign, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadCampaign(f)
	if err != nil {
		return nil, fmt.Errorf("lasvegas: %s: %w", path, err)
	}
	return c, nil
}

// WriteCSV emits one row per run: index, iterations, seconds,
// censored (0/1) — the format ReadCampaignCSV parses back. Runs
// folded into a sketch have no per-run records, so a campaign that
// keeps no raw runs fails with ErrNoRawRuns.
func (c *Campaign) WriteCSV(w io.Writer) error {
	if len(c.Iterations) == 0 && c.HasSketch() {
		return fmt.Errorf("%w: nothing to write as CSV", ErrNoRawRuns)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"run", "iterations", "seconds", "censored"}); err != nil {
		return err
	}
	cens := c.censoredSet()
	for i := range c.Iterations {
		sec := 0.0
		if i < len(c.Seconds) {
			sec = c.Seconds[i]
		}
		flag := "0"
		if cens[i] {
			flag = "1"
		}
		rec := []string{
			strconv.Itoa(i),
			strconv.FormatFloat(c.Iterations[i], 'g', -1, 64),
			strconv.FormatFloat(sec, 'g', -1, 64),
			flag,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCampaignCSV parses the WriteCSV format (and the legacy
// three-column variant without the censored flag). Problem and seed
// metadata are not stored in CSV and stay zero.
func ReadCampaignCSV(r io.Reader) (*Campaign, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) < 2 {
		return nil, ErrEmptyCampaign
	}
	c := &Campaign{Runs: len(records) - 1}
	for i, rec := range records[1:] {
		if len(rec) != 3 && len(rec) != 4 {
			return nil, fmt.Errorf("lasvegas: bad CSV row %v", rec)
		}
		it, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("lasvegas: bad iterations %q", rec[1])
		}
		sec, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("lasvegas: bad seconds %q", rec[2])
		}
		c.Iterations = append(c.Iterations, it)
		c.Seconds = append(c.Seconds, sec)
		if len(rec) == 4 && rec[3] == "1" {
			c.Censored = append(c.Censored, i)
		}
	}
	return c, nil
}

// IsCensored reports whether any run was cut off by the budget.
func (c *Campaign) IsCensored() bool { return len(c.Censored) > 0 }

// CensoredFraction returns the fraction of runs cut off by the
// budget (0 for complete or empty campaigns).
func (c *Campaign) CensoredFraction() float64 {
	if len(c.Iterations) == 0 {
		return 0
	}
	return float64(len(c.Censored)) / float64(len(c.Iterations))
}

// Observations returns the campaign as parallel value / censoring
// slices — the representation the survival estimators consume. The
// values slice is the campaign's own Iterations (not a copy); the
// flags slice is freshly built from the Censored indices.
func (c *Campaign) Observations() (values []float64, censored []bool) {
	censored = make([]bool, len(c.Iterations))
	for _, i := range c.Censored {
		if i >= 0 && i < len(censored) {
			censored[i] = true
		}
	}
	return c.Iterations, censored
}

// censoredSet returns the censored indices as a lookup set.
func (c *Campaign) censoredSet() map[int]bool {
	if len(c.Censored) == 0 {
		return nil
	}
	set := make(map[int]bool, len(c.Censored))
	for _, i := range c.Censored {
		set[i] = true
	}
	return set
}

// Complete returns the iteration counts of the uncensored runs (the
// whole sample when the campaign is complete; a copy otherwise).
func (c *Campaign) Complete() []float64 {
	if !c.IsCensored() {
		return c.Iterations
	}
	cens := c.censoredSet()
	out := make([]float64, 0, len(c.Iterations)-len(c.Censored))
	for i, x := range c.Iterations {
		if !cens[i] {
			out = append(out, x)
		}
	}
	return out
}

// Summary holds the paper's Table-1/2 statistics of one metric.
type Summary struct {
	Min, Mean, Median, Max float64
}

// IterationSummary returns the Table-2 row of the campaign
// (censored runs included at their budget value).
func (c *Campaign) IterationSummary() Summary {
	s := stats.Summarize(c.Iterations)
	return Summary{Min: s.Min, Mean: s.Mean, Median: s.Median, Max: s.Max}
}

// TimeSummary returns the Table-1 row of the campaign.
func (c *Campaign) TimeSummary() Summary {
	s := stats.Summarize(c.Seconds)
	return Summary{Min: s.Min, Mean: s.Mean, Median: s.Median, Max: s.Max}
}
