// Package experiments regenerates every table and figure of the
// ShapeSearch paper's evaluation (Sections 7.3 and 9) on the synthetic
// dataset substitutes, plus the Section 4 CRF quality measurement. Each
// experiment returns a renderable Table; cmd/experiments prints them and
// bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"strings"
	"time"
)

// Config scales the experiments.
type Config struct {
	// Quick subsamples the visualization collections (roughly 4×) and
	// reduces trial counts so the full suite finishes in a couple of
	// minutes. Full mode uses the published dataset dimensions.
	Quick bool
	// Trials is how many timed trials to average after one warm-up
	// (the paper ran five after one warm-up). Default: 3, or 1 in Quick.
	Trials int
	// K is the top-k size for runtime experiments (default 10).
	K int
}

// DefaultConfig returns full-scale settings.
func DefaultConfig() Config { return Config{Trials: 3, K: 10} }

// QuickConfig returns CI-friendly settings.
func QuickConfig() Config { return Config{Quick: true, Trials: 1, K: 10} }

func (c Config) normalized() Config {
	if c.Trials <= 0 {
		if c.Quick {
			c.Trials = 1
		} else {
			c.Trials = 3
		}
	}
	if c.K <= 0 {
		c.K = 10
	}
	return c
}

// Table is one rendered experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Render formats the table as markdown.
func (t Table) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "## %s — %s\n\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		sb.WriteString("|")
		for i, c := range cells {
			fmt.Fprintf(&sb, " %-*s |", widths[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.Header)
	sb.WriteString("|")
	for _, w := range widths {
		sb.WriteString(strings.Repeat("-", w+2) + "|")
	}
	sb.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "\n> %s\n", n)
	}
	return sb.String()
}

// timeIt runs fn once for warm-up, then cfg.Trials timed trials, returning
// the mean, min and max trial durations (the paper's protocol: six trials,
// first discarded, rest averaged).
func timeIt(trials int, fn func()) (mean, min, max time.Duration) {
	fn() // warm-up
	min = time.Duration(1<<63 - 1)
	var total time.Duration
	for i := 0; i < trials; i++ {
		start := time.Now()
		fn()
		d := time.Since(start)
		total += d
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	return total / time.Duration(trials), min, max
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

func pct(f float64) string { return fmt.Sprintf("%.1f", f) }

// All runs every experiment in paper order.
func All(cfg Config) []Table {
	return []Table{
		Table11(cfg),
		Table8(cfg),
		Fig9a(cfg),
		Fig9b(cfg),
		Fig10(cfg),
		Fig11(cfg),
		Fig12(cfg),
		Fig13a(cfg),
		Fig13b(cfg),
		Fig13c(cfg),
		CRFQuality(cfg),
	}
}

// ByID returns the experiment runner for an id, or false.
func ByID(id string) (func(Config) Table, bool) {
	m := map[string]func(Config) Table{
		"table11": Table11,
		"table8":  Table8,
		"fig9a":   Fig9a,
		"fig9b":   Fig9b,
		"fig10":   Fig10,
		"fig11":   Fig11,
		"fig12":   Fig12,
		"fig13a":  Fig13a,
		"fig13b":  Fig13b,
		"fig13c":  Fig13c,
		"crf":     CRFQuality,
	}
	fn, ok := m[id]
	return fn, ok
}

// IDs lists experiment ids in paper order.
func IDs() []string {
	return []string{"table11", "table8", "fig9a", "fig9b", "fig10", "fig11",
		"fig12", "fig13a", "fig13b", "fig13c", "crf"}
}
