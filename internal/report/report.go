// Package report renders experiment results as the tables, CDFs, box
// plots and ASCII charts the paper's figures are built from. Everything
// writes plain text or CSV so results diff cleanly in EXPERIMENTS.md.
package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// CDF is an empirical cumulative distribution over a sample set.
type CDF struct {
	sorted []float64
}

// NewCDF builds a CDF from samples (copied; NaNs dropped).
func NewCDF(samples []float64) *CDF {
	clean := make([]float64, 0, len(samples))
	for _, v := range samples {
		if !math.IsNaN(v) {
			clean = append(clean, v)
		}
	}
	sort.Float64s(clean)
	return &CDF{sorted: clean}
}

// Len returns the number of samples.
func (c *CDF) Len() int { return len(c.sorted) }

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(idx) / float64(len(c.sorted))
}

// Quantile returns the smallest sample v with P(X <= v) >= p. p is clamped
// to [0, 1]; an empty CDF yields NaN.
func (c *CDF) Quantile(p float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return c.sorted[0]
	}
	if p >= 1 {
		return c.sorted[len(c.sorted)-1]
	}
	idx := int(math.Ceil(p*float64(len(c.sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return c.sorted[idx]
}

// FractionAbove returns P(X >= x).
func (c *CDF) FractionAbove(x float64) float64 {
	if len(c.sorted) == 0 {
		return 0
	}
	idx := sort.SearchFloat64s(c.sorted, x)
	return float64(len(c.sorted)-idx) / float64(len(c.sorted))
}

// LogXPoints samples the CDF at n log-spaced x positions spanning the data
// range, the series behind the paper's log-x Fig. 4 plots. Non-positive
// samples are clamped to the smallest positive one.
func (c *CDF) LogXPoints(n int) []Point {
	if len(c.sorted) == 0 || n < 2 {
		return nil
	}
	lo := c.sorted[0]
	hi := c.sorted[len(c.sorted)-1]
	if lo <= 0 {
		lo = smallestPositive(c.sorted)
		if lo <= 0 {
			return nil
		}
	}
	if hi <= lo {
		return []Point{{X: lo, Y: 1}}
	}
	out := make([]Point, n)
	for i := range out {
		x := lo * math.Pow(hi/lo, float64(i)/float64(n-1))
		out[i] = Point{X: x, Y: c.At(x)}
	}
	return out
}

func smallestPositive(sorted []float64) float64 {
	for _, v := range sorted {
		if v > 0 {
			return v
		}
	}
	return 0
}

// Point is one (x, y) pair of a rendered curve.
type Point struct{ X, Y float64 }

// Table renders rows of labelled columns as aligned plain text.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; cells beyond the header width are dropped.
func (t *Table) AddRow(cells ...string) {
	if len(cells) > len(t.header) {
		cells = cells[:len(t.header)]
	}
	t.rows = append(t.rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, w := range widths {
			c := ""
			if i < len(cells) {
				c = cells[i]
			}
			fmt.Fprintf(&b, "%-*s", w, c)
			if i < len(widths)-1 {
				b.WriteString("  ")
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
