package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Samples is a parsed scrape: every sample line keyed by its full
// series name (`name{label="value",...}`, exactly as rendered), plus
// the family declarations from the # TYPE comments — a registered
// family is declared on every scrape even before its first series
// exists, which is what lets a checker assert the telemetry contract
// against a freshly booted daemon.
type Samples struct {
	series   map[string]float64
	families map[string]string // family name -> declared type
}

// ParseText parses a Prometheus text exposition — the counterpart of
// Registry.WriteText, shared with scripts/loadgen's -metrics-check so
// the scraper and the renderer can never drift apart. # TYPE comments
// feed the family set, other comments and blank lines are skipped; a
// malformed sample line is an error.
func ParseText(r io.Reader) (Samples, error) {
	out := Samples{series: make(map[string]float64), families: make(map[string]string)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			if fields := strings.Fields(line); len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
				out.families[fields[2]] = fields[3]
			}
			continue
		}
		// The value is everything after the last space outside braces;
		// rendered series never contain spaces, so the last field is
		// always the value (timestamps are never rendered here).
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return Samples{}, fmt.Errorf("obs: metrics line %d: no value: %q", lineno, line)
		}
		series, vs := strings.TrimSpace(line[:i]), line[i+1:]
		v, err := strconv.ParseFloat(vs, 64)
		if err != nil {
			// +Inf / NaN parse fine via ParseFloat; anything else is junk.
			return Samples{}, fmt.Errorf("obs: metrics line %d: bad value %q: %v", lineno, vs, err)
		}
		out.series[series] = v
	}
	if err := sc.Err(); err != nil {
		return Samples{}, err
	}
	return out, nil
}

// Get returns the sample for one series (the exact rendered form) and
// whether it exists.
func (s Samples) Get(series string) (float64, bool) {
	v, ok := s.series[series]
	return v, ok
}

// MaxLabeled returns the maximum value over every series of family
// name whose label block contains the needle (e.g. `quantile="0.99"`),
// and whether any matched. NaN values are skipped.
func (s Samples) MaxLabeled(name, needle string) (float64, bool) {
	max, found := 0.0, false
	prefix := name + "{"
	for series, v := range s.series {
		if !strings.HasPrefix(series, prefix) || !strings.Contains(series, needle) {
			continue
		}
		if v != v { // NaN
			continue
		}
		if !found || v > max {
			max, found = v, true
		}
	}
	return max, found
}

// HasFamily reports whether family name was scraped: declared by a
// # TYPE comment (every registered family is, series or not) or
// present as a sample series.
func (s Samples) HasFamily(name string) bool {
	if _, ok := s.families[name]; ok {
		return true
	}
	for series := range s.series {
		if series == name || strings.HasPrefix(series, name+"{") {
			return true
		}
	}
	return false
}
