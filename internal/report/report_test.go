package report

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestCDFBasics(t *testing.T) {
	c := NewCDF([]float64{1, 2, 3, 4})
	if c.Len() != 4 {
		t.Fatalf("len = %d", c.Len())
	}
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2.5, 0.5}, {4, 1}, {99, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); math.Abs(got-cse.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFQuantile(t *testing.T) {
	c := NewCDF([]float64{10, 20, 30, 40, 50})
	if got := c.Quantile(0.5); got != 30 {
		t.Fatalf("median = %v, want 30", got)
	}
	if got := c.Quantile(0); got != 10 {
		t.Fatalf("q0 = %v", got)
	}
	if got := c.Quantile(1); got != 50 {
		t.Fatalf("q1 = %v", got)
	}
	if !math.IsNaN(NewCDF(nil).Quantile(0.5)) {
		t.Fatal("empty quantile should be NaN")
	}
}

func TestCDFFractionAbove(t *testing.T) {
	c := NewCDF([]float64{1, 10, 100, 1000, 10000})
	if got := c.FractionAbove(1000); math.Abs(got-0.4) > 1e-12 {
		t.Fatalf("FractionAbove(1000) = %v, want 0.4", got)
	}
	if got := c.FractionAbove(0); got != 1 {
		t.Fatalf("FractionAbove(0) = %v, want 1", got)
	}
}

func TestCDFDropsNaN(t *testing.T) {
	c := NewCDF([]float64{1, math.NaN(), 2})
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	f := func(vals []float64) bool {
		c := NewCDF(vals)
		if c.Len() == 0 {
			return true
		}
		prev := -1.0
		for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
			q := c.Quantile(p)
			if math.IsNaN(q) {
				return false
			}
			y := c.At(q)
			if y < prev-1e-12 {
				return false
			}
			prev = y
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLogXPoints(t *testing.T) {
	c := NewCDF([]float64{1, 10, 100, 1000})
	pts := c.LogXPoints(10)
	if len(pts) != 10 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].X != 1 || math.Abs(pts[len(pts)-1].X-1000) > 1e-9 {
		t.Fatalf("x range = %v .. %v", pts[0].X, pts[len(pts)-1].X)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Y < pts[i-1].Y {
			t.Fatal("CDF curve not monotone")
		}
	}
	if pts[len(pts)-1].Y != 1 {
		t.Fatalf("final y = %v, want 1", pts[len(pts)-1].Y)
	}
}

func TestLogXPointsDegenerate(t *testing.T) {
	if pts := NewCDF(nil).LogXPoints(5); pts != nil {
		t.Fatal("empty CDF should yield nil")
	}
	if pts := NewCDF([]float64{-5, -1}).LogXPoints(5); pts != nil {
		t.Fatal("all-negative CDF should yield nil (log axis)")
	}
	pts := NewCDF([]float64{7, 7, 7}).LogXPoints(5)
	if len(pts) != 1 || pts[0].Y != 1 {
		t.Fatalf("constant CDF = %v", pts)
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("metric", "value")
	tb.AddRow("temperature", "0.003")
	tb.AddRow("cpu", "0.008", "extra-dropped")
	out := tb.String()
	if !strings.Contains(out, "temperature") || !strings.Contains(out, "0.008") {
		t.Fatalf("table output:\n%s", out)
	}
	if strings.Contains(out, "extra-dropped") {
		t.Fatal("extra cell should be dropped")
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want 4 (header, sep, 2 rows)", len(lines))
	}
}

func TestAsciiPlotRender(t *testing.T) {
	pts := make([]Point, 50)
	for i := range pts {
		pts[i] = Point{X: float64(i + 1), Y: math.Sqrt(float64(i))}
	}
	out := AsciiPlot{Width: 40, Height: 10, Title: "demo"}.Render(pts)
	if !strings.Contains(out, "demo") || !strings.Contains(out, "*") {
		t.Fatalf("plot output:\n%s", out)
	}
	if !strings.Contains(out, "x: 1 ..") {
		t.Fatalf("axis line missing:\n%s", out)
	}
}

func TestAsciiPlotLogX(t *testing.T) {
	pts := []Point{{1, 0}, {10, 0.5}, {100, 0.9}, {1000, 1}, {-5, 0.2}}
	out := AsciiPlot{LogX: true}.Render(pts)
	if !strings.Contains(out, "(log)") {
		t.Fatalf("log axis annotation missing:\n%s", out)
	}
}

func TestAsciiPlotEmpty(t *testing.T) {
	out := AsciiPlot{Title: "t"}.Render(nil)
	if !strings.Contains(out, "(no data)") {
		t.Fatalf("empty plot output:\n%s", out)
	}
	out = AsciiPlot{LogX: true}.Render([]Point{{X: -1, Y: 0}})
	if !strings.Contains(out, "(no data)") {
		t.Fatal("all-filtered plot should report no data")
	}
}

func TestBar(t *testing.T) {
	out := Bar("fig1", []string{"a", "bb"}, []float64{0.5, 1.2}, 20)
	if !strings.Contains(out, "fig1") {
		t.Fatal("title missing")
	}
	if !strings.Contains(out, "50.0%") {
		t.Fatalf("fraction missing:\n%s", out)
	}
	if !strings.Contains(out, "100.0%") {
		t.Fatal("fractions above 1 must clamp to 100%")
	}
}

func TestBoxRow(t *testing.T) {
	row := BoxRow("temp", 1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-7, 1e-1, 40, true)
	if !strings.Contains(row, "temp") || !strings.Contains(row, "M") {
		t.Fatalf("box row: %q", row)
	}
	// Linear axis variant.
	row = BoxRow("lin", 1, 2, 3, 4, 5, 0, 10, 40, false)
	if !strings.Contains(row, "=") || !strings.Contains(row, "|") {
		t.Fatalf("linear box row: %q", row)
	}
}
