package tsdb

import (
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

// The open-run differential: seeded runs through the raw store's open
// block, rendered as every raw block the seal hook saw (the bytes the WAL
// persists), every sealed block and unsealed point ExportSeries hands a
// snapshot, and the same after a restore under a smaller block length.
// The dump was written by commit 24e52b4, the last build whose open run
// was a slice of plain points, and must repeat byte for byte: how the
// open run holds its points is invisible in every byte it seals or
// exports. It uses only exported names, so the same file compiles there:
//
//	NYQ_GOLDEN_DIR=<dir> go test ./internal/tsdb -run TestOpenRunDifferential
//
// writes <dir>/open_run.golden instead of comparing.

// openRunScript builds every series' points from one seed. Each series
// stresses one way the open run could code a value or an instant.
func openRunScript() map[string][]series.Point {
	rng := rand.New(rand.NewSource(28))
	t0 := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	out := map[string][]series.Point{}
	at := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }

	// Two-decimal telemetry at 1 Hz: the end-to-end benchmark's shape.
	for i := 0; i < 700; i++ {
		v := math.Round((48+9*math.Sin(float64(i)/17)+3*math.Sin(float64(i)/5+1)+rng.Float64())*100) / 100
		out["two-decimal"] = append(out["two-decimal"], series.Point{Time: at(i), Value: v})
	}
	// Exponent raises in the middle of runs: whole numbers, then tenths,
	// then thousandths, a float sum of decimals (an ulp residual), and a
	// mantissa that outgrows the higher exponent and ends the run's
	// decimal form.
	for i := 0; i < 600; i++ {
		v := float64(rng.Intn(200))
		switch {
		case i%128 >= 40 && i%128 < 70:
			v = float64(rng.Intn(2000)) / 10
		case i%128 >= 70 && i%128 < 90:
			v = float64(rng.Intn(200000)) / 1000
		case i%128 >= 90 && i%128 < 100:
			v = 0.1*float64(rng.Intn(50)) + 0.2
		case i%128 == 100 && i > 300:
			v = 3e13 + 0.5
		case i%128 > 100:
			v = float64(rng.Intn(1000)) / 100
		}
		out["raise"] = append(out["raise"], series.Point{Time: at(i), Value: v})
	}
	// NaN (with and without a payload), ±Inf, −0 and binary-quantized
	// readings in and out of otherwise decimal runs.
	for i := 0; i < 500; i++ {
		v := math.Round(rng.NormFloat64()*400) / 64
		switch rng.Intn(40) {
		case 0:
			v = math.NaN()
		case 1:
			v = math.Float64frombits(0x7ff8_0000_0000_0000 | uint64(i)<<3 | 1)
		case 2:
			v = math.Copysign(0, -1)
		case 3:
			v = math.Inf(1 - 2*(i%2))
		}
		if i >= 250 && i < 380 { // one run that stays decimal but for a single −0
			v = float64(rng.Intn(5000)) / 100
			if i == 333 {
				v = math.Copysign(0, -1)
			}
		}
		out["specials"] = append(out["specials"], series.Point{Time: at(i), Value: v})
	}
	// Duplicate and jittered stamps: every fourth sample repeats its
	// predecessor's instant, the rest land up to ±400 ms off the grid, with
	// an hour-long gap every 150 samples.
	ts := t0
	for i := 0; i < 650; i++ {
		switch {
		case i%4 == 3:
		case i%150 == 149:
			ts = ts.Add(time.Hour)
		default:
			ts = ts.Add(time.Second + time.Duration(rng.Int63n(int64(800*time.Millisecond))) - 400*time.Millisecond)
		}
		out["dups-jitter"] = append(out["dups-jitter"], series.Point{Time: ts, Value: math.Round(rng.Float64()*1e4) / 100})
	}
	return out
}

// openRunDump renders what db's series export: sealed blocks and the
// unsealed run.
func openRunDump(t *testing.T, w *strings.Builder, db *DB) {
	t.Helper()
	var snaps []SeriesSnapshot
	if err := db.ExportSeries(func(s SeriesSnapshot) error { snaps = append(snaps, s); return nil }); err != nil {
		t.Fatal(err)
	}
	sort.Slice(snaps, func(a, b int) bool { return snaps[a].ID < snaps[b].ID })
	for _, s := range snaps {
		fmt.Fprintf(w, "series %s appends=%d raw=%d active=%d\n", s.ID, s.Appends, len(s.Raw), len(s.Active))
		for i, blk := range s.Raw {
			fmt.Fprintf(w, "raw %d n=%d first=%d last=%d data=%s\n", i, blk.Len(), blk.firstNano, blk.lastNano, hex.EncodeToString(blk.Data()))
		}
		for _, p := range s.Active {
			fmt.Fprintf(w, "active %d %016x\n", p.Time.UnixNano(), math.Float64bits(p.Value))
		}
	}
}

// openRunPlay runs the script through a store of each block length — a
// power of two and one that is not — exporting each into a store with a
// smaller block length halfway and finishing there, then force-seals.
func openRunPlay(t *testing.T) string {
	t.Helper()
	script := openRunScript()
	ids := make([]string, 0, len(script))
	for id := range script {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	var w strings.Builder
	// SealAll walks the shards' maps, so the seals it fires are sorted
	// before they are written.
	var sealAll []string
	hook := func(stage string) SealHook {
		return func(id string, blk Block) {
			line := fmt.Sprintf("seal %s %s n=%d first=%d last=%d data=%s\n", stage, id, blk.Len(), blk.firstNano, blk.lastNano, hex.EncodeToString(blk.Data()))
			if stage == "sealall" {
				sealAll = append(sealAll, line)
				return
			}
			w.WriteString(line)
		}
	}
	for _, blocks := range [][2]int{{128, 24}, {37, 16}} {
		first := New(Config{Shards: 2, Retention: RetentionConfig{RawCapacity: 4096, Tiers: -1, CompressBlock: blocks[0]}})
		first.OnSeal(hook("first"))
		for _, id := range ids {
			pts := script[id]
			for _, p := range pts[:len(pts)/2] {
				if err := first.Append(id, p); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
		}
		fmt.Fprintf(&w, "== block %d, first half\n", blocks[0])
		openRunDump(t, &w, first)

		second := New(Config{Shards: 3, Retention: RetentionConfig{RawCapacity: 4096, Tiers: -1, CompressBlock: blocks[1]}})
		if err := first.ExportSeries(func(s SeriesSnapshot) error { second.RestoreSeries(s); return nil }); err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&w, "== restored under block %d\n", blocks[1])
		openRunDump(t, &w, second)
		second.OnSeal(hook("second"))
		for _, id := range ids {
			pts := script[id]
			for _, p := range pts[len(pts)/2:] {
				if err := second.Append(id, p); err != nil {
					t.Fatalf("%s: %v", id, err)
				}
			}
		}
		w.WriteString("== second half\n")
		openRunDump(t, &w, second)
		second.OnSeal(hook("sealall"))
		fmt.Fprintf(&w, "== sealed %d\n", second.SealAll())
		sort.Strings(sealAll)
		w.WriteString(strings.Join(sealAll, ""))
		sealAll = sealAll[:0]
		openRunDump(t, &w, second)
	}
	return w.String()
}

func TestOpenRunDifferential(t *testing.T) {
	got := openRunPlay(t)
	if dir := os.Getenv("NYQ_GOLDEN_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "open_run.golden"), []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(filepath.Join("testdata", "open_run.golden"))
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := range gl {
		if i >= len(wl) || gl[i] != wl[i] {
			t.Fatalf("differs from the parent build's dump at line %d:\n got %q\nwant %q", i+1, gl[i], append(wl, "")[min(i, len(wl))])
		}
	}
	if len(gl) != len(wl) {
		t.Fatalf("dump has %d lines, the parent build's %d", len(gl), len(wl))
	}
}
