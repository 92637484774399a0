// Package experiments regenerates every table and figure of the
// paper's evaluation. Each experiment is addressed by the paper's own
// identifier (table1..table5, fig1..fig14) and produces an Artifact:
// a formatted table and/or an ASCII figure plus machine-readable CSV.
//
// Two modes exist (Config.Paper):
//
//   - live mode runs fresh Adaptive Search campaigns on scaled-down
//     instances, fits distributions with the paper's §6 procedure,
//     predicts speed-ups and measures them with the multi-walk
//     engines — the full pipeline end to end;
//   - paper mode replays the published numbers embedded in
//     internal/paperdata, feeding the paper's own fitted parameters
//     through this repository's predictor, which reproduces the
//     paper's predicted rows exactly (pinned by
//     TestPaperTable5ContainsPublishedPrediction).
package experiments

import (
	"fmt"
	"strings"
)

// Artifact is a regenerated table or figure.
type Artifact struct {
	ID          string
	Title       string
	Description string
	Headers     []string   // table header (optional)
	Rows        [][]string // table body (optional)
	Figure      string     // ASCII chart (optional)
	CSV         string     // machine-readable series (optional)
}

// Render formats the artifact for a terminal.
func (a *Artifact) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", a.ID, a.Title)
	if a.Description != "" {
		fmt.Fprintf(&b, "%s\n", a.Description)
	}
	if len(a.Headers) > 0 {
		b.WriteString(renderTable(a.Headers, a.Rows))
	}
	if a.Figure != "" {
		b.WriteString(a.Figure)
	}
	return b.String()
}

// renderTable aligns columns to their widest cell.
func renderTable(headers []string, rows [][]string) string {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(headers)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range rows {
		writeRow(row)
	}
	return b.String()
}

// f1 formats a float with one decimal, the paper's table style.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// fg formats compactly.
func fg(v float64) string { return fmt.Sprintf("%.6g", v) }
