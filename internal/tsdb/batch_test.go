package tsdb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

// TestAppendBatchMatchesSequential is the order-preservation property
// test for the shard-affinity batched append: random multi-series
// batches with interleaved late points, applied to one DB through
// AppendBatch and to a twin through per-point Append, must produce
// identical per-point verdicts, identical per-series stored content (so
// stored order per series equals the arrival order of its accepted
// points), and identical engine stats — the reject count the serving
// layer reports is exactly the reference store's. The counting-sort
// regrouping inside AppendBatch is only allowed to change which lock is
// held when, never what lands.
func TestAppendBatchMatchesSequential(t *testing.T) {
	for trial := 0; trial < 40; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		cfg := Config{
			Shards: 1 + rng.Intn(8),
			Retention: RetentionConfig{
				RawCapacity:   64,
				TierCapacity:  32,
				Tiers:         2,
				CompressBlock: 16,
			},
		}
		dbBatch, dbRef := New(cfg), New(cfg)
		nSeries := 1 + rng.Intn(6)
		clocks := make([]time.Time, nSeries)
		for i := range clocks {
			clocks[i] = start
		}
		total := 200 + rng.Intn(600)
		var chunk []BatchPoint
		flush := func() {
			if len(chunk) == 0 {
				return
			}
			accepted := dbBatch.AppendBatch(chunk)
			wantAccepted := 0
			for i := range chunk {
				refErr := dbRef.Append(chunk[i].ID, chunk[i].P)
				if refErr == nil {
					wantAccepted++
				}
				bErr := chunk[i].Err
				switch {
				case (bErr == nil) != (refErr == nil):
					t.Fatalf("trial %d point %d (%s@%v): batch err %v, sequential err %v",
						trial, i, chunk[i].ID, chunk[i].P.Time, bErr, refErr)
				case bErr != nil && bErr.Error() != refErr.Error():
					t.Fatalf("trial %d point %d: batch reason %q, sequential reason %q",
						trial, i, bErr, refErr)
				}
			}
			if accepted != wantAccepted {
				t.Fatalf("trial %d: AppendBatch accepted %d, sequential accepted %d", trial, accepted, wantAccepted)
			}
			chunk = chunk[:0]
		}
		for i := 0; i < total; i++ {
			sid := rng.Intn(nSeries)
			var ts time.Time
			if rng.Intn(6) == 0 {
				// A late point: behind this series' clock, so it must draw
				// the same rejection from both paths.
				ts = clocks[sid].Add(-time.Duration(1+rng.Intn(90)) * time.Second)
			} else {
				clocks[sid] = clocks[sid].Add(time.Duration(1+rng.Intn(30)) * time.Second)
				ts = clocks[sid]
			}
			chunk = append(chunk, BatchPoint{
				ID: fmt.Sprintf("s%02d", sid),
				P:  series.Point{Time: ts, Value: rng.NormFloat64()},
			})
			// Random chunk boundaries: regrouping must hold per-series
			// order within every split of the stream, not just one.
			if rng.Intn(40) == 0 {
				flush()
			}
		}
		flush()

		// Whole-store stats, then every series read back.
		sb, sr := dbBatch.Stats(), dbRef.Stats()
		sb.SeriesPerShard, sr.SeriesPerShard = nil, nil
		if fmt.Sprintf("%+v", sb) != fmt.Sprintf("%+v", sr) {
			t.Fatalf("trial %d: stats diverge\nbatch:      %+v\nsequential: %+v", trial, sb, sr)
		}
		for _, id := range dbRef.IDs() {
			fb, err := dbBatch.Full(id)
			if err != nil {
				t.Fatalf("trial %d: batch Full(%s): %v", trial, id, err)
			}
			fr, err := dbRef.Full(id)
			if err != nil {
				t.Fatalf("trial %d: sequential Full(%s): %v", trial, id, err)
			}
			if len(fb.Points) != len(fr.Points) {
				t.Fatalf("trial %d series %s: batch stored %d points, sequential %d",
					trial, id, len(fb.Points), len(fr.Points))
			}
			for i := range fb.Points {
				if !fb.Points[i].Time.Equal(fr.Points[i].Time) || fb.Points[i].Value != fr.Points[i].Value {
					t.Fatalf("trial %d series %s point %d: batch %v=%v, sequential %v=%v",
						trial, id, i,
						fb.Points[i].Time, fb.Points[i].Value,
						fr.Points[i].Time, fr.Points[i].Value)
				}
			}
		}
	}
}

// TestAppendBatchSealsThroughHook verifies the batched path drives the
// same WAL seal hook as per-point appends: sealed blocks surface in
// per-series order with identical payloads.
func TestAppendBatchSealsThroughHook(t *testing.T) {
	type sealed struct {
		id  string
		blk Block
	}
	collect := func(db *DB) *[]sealed {
		out := &[]sealed{}
		db.OnSeal(func(id string, blk Block) {
			*out = append(*out, sealed{id, blk})
		})
		return out
	}
	cfg := Config{Shards: 4,
		Retention: RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 1, CompressBlock: 8}}
	dbBatch, dbRef := New(cfg), New(cfg)
	gotB, gotR := collect(dbBatch), collect(dbRef)

	var chunk []BatchPoint
	for i := 0; i < 200; i++ {
		id := fmt.Sprintf("seal%d", i%3)
		p := series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)}
		chunk = append(chunk, BatchPoint{ID: id, P: p})
	}
	dbBatch.AppendBatch(chunk)
	for i := range chunk {
		if err := dbRef.Append(chunk[i].ID, chunk[i].P); err != nil {
			t.Fatal(err)
		}
	}
	// The batch path may order series within a shard differently than the
	// arrival interleaving, but per series the sealed sequence must be
	// identical.
	perSeries := func(got []sealed) map[string][]Block {
		m := map[string][]Block{}
		for _, s := range got {
			m[s.id] = append(m[s.id], s.blk)
		}
		return m
	}
	mb, mr := perSeries(*gotB), perSeries(*gotR)
	if len(*gotB) != len(*gotR) {
		t.Fatalf("batch sealed %d blocks, sequential %d", len(*gotB), len(*gotR))
	}
	for id, blksR := range mr {
		blksB := mb[id]
		if len(blksB) != len(blksR) {
			t.Fatalf("series %s: batch sealed %d blocks, sequential %d", id, len(blksB), len(blksR))
		}
		for i := range blksR {
			if string(blksB[i].Data()) != string(blksR[i].Data()) || blksB[i].Len() != blksR[i].Len() {
				t.Fatalf("series %s block %d: payload diverges", id, i)
			}
		}
	}
}

// renderSnapshot is the canonical rendering of one series' stored state:
// every sealed byte, the open tail, every bucket and counter, with the
// in-progress tier bucket dereferenced (its pointer identity is not part
// of the stored state).
func renderSnapshot(ss SeriesSnapshot) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s ny=%v gap=%v last=%v/%v app=%d comp=%d drop=%d\n",
		ss.ID, ss.NyquistRate, ss.Gap, ss.LastTime.UnixNano(), ss.HaveLast, ss.Appends, ss.Compacted, ss.Dropped)
	for _, blk := range ss.Raw {
		fmt.Fprintf(&b, "raw blk=%x n=%d\n", blk.Data(), blk.Len())
	}
	fmt.Fprintf(&b, "active=%v\n", ss.Active)
	for _, tr := range ss.Tiers {
		fmt.Fprintf(&b, "tier w=%v buckets=%+v", tr.Width, tr.Buckets)
		if tr.Cur != nil {
			fmt.Fprintf(&b, " cur=%+v", *tr.Cur)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// renderDB renders every stored series, sorted by id.
func renderDB(t *testing.T, db *DB) string {
	t.Helper()
	var out []string
	if err := db.ExportSeries(func(ss SeriesSnapshot) error {
		out = append(out, renderSnapshot(ss))
		return nil
	}); err != nil {
		t.Fatalf("export: %v", err)
	}
	sort.Strings(out)
	return strings.Join(out, "")
}

// TestAppendContractTable pins the one write contract across its three
// entry points. Each case is a sequence of uniform runs applied to three
// twin stores — per-point Append, one AppendBatch per run, AppendUniform —
// and must draw the same per-point verdicts and leave the same stored
// bytes. Every run is built so that nothing after its first rejected
// sample is acceptable, which is where AppendUniform (stop at the first
// rejection, earlier samples landed) and the per-point paths (judge every
// point) store the same thing.
func TestAppendContractTable(t *testing.T) {
	type run struct {
		start    time.Time
		interval time.Duration
		n        int
		accepted int   // samples that land
		err      error // verdict of every later sample; nil when all land
	}
	cases := []struct {
		name string
		runs []run
	}{
		{"in-order", []run{
			{start, time.Second, 40, 40, nil},
			{start.Add(40 * time.Second), 7 * time.Second, 25, 25, nil},
		}},
		{"equal timestamps", []run{
			{start, time.Second, 10, 10, nil},
			{start.Add(9 * time.Second), 0, 12, 12, nil},
		}},
		{"run behind the clock", []run{
			{start, time.Second, 30, 30, nil},
			{start.Add(5 * time.Second), time.Second, 3, 0, ErrOutOfOrder},
			{start.Add(29 * time.Second), time.Second, 4, 4, nil},
		}},
		{"one backwards step", []run{
			{start, time.Second, 20, 20, nil},
			{start.Add(30 * time.Second), -time.Second, 5, 1, ErrOutOfOrder},
		}},
		{"crossing the accepted range", []run{
			{maxAppendTime.Add(-40 * time.Second), time.Second, 38, 38, nil},
			{maxAppendTime.Add(-2 * time.Second), time.Second, 6, 3, ErrTimeRange},
		}},
		{"first stamp out of range", []run{
			{minAppendTime.Add(-time.Nanosecond), 0, 2, 0, ErrTimeRange},
			{minAppendTime, time.Hour, 20, 20, nil},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Shards: 2, Retention: RetentionConfig{RawCapacity: 16, TierCapacity: 8, Tiers: 2, CompressBlock: 4}}
			dbAppend, dbBatch, dbUniform := New(cfg), New(cfg), New(cfg)
			const id = "host/metric"
			wantAppends := 0
			for ri, r := range tc.runs {
				u := &series.Uniform{Start: r.start, Interval: r.interval, Values: make([]float64, r.n)}
				chunk := make([]BatchPoint, r.n)
				for i := range u.Values {
					u.Values[i] = float64(100*ri + i)
					chunk[i] = BatchPoint{ID: id, P: series.Point{Time: u.TimeAt(i), Value: u.Values[i]}}
				}
				if got := dbBatch.AppendBatch(chunk); got != r.accepted {
					t.Fatalf("run %d: AppendBatch accepted %d, want %d", ri, got, r.accepted)
				}
				for i := range chunk {
					var want error
					if i >= r.accepted {
						want = r.err
					}
					if err := dbAppend.Append(id, chunk[i].P); err != want {
						t.Fatalf("run %d sample %d: Append = %v, want %v", ri, i, err, want)
					}
					if chunk[i].Err != want {
						t.Fatalf("run %d sample %d: AppendBatch verdict %v, want %v", ri, i, chunk[i].Err, want)
					}
				}
				if err := dbUniform.AppendUniform(id, u); err != r.err {
					t.Fatalf("run %d: AppendUniform = %v, want %v", ri, err, r.err)
				}
				wantAppends += r.accepted
			}
			want := renderDB(t, dbAppend)
			if got := renderDB(t, dbBatch); got != want {
				t.Fatalf("AppendBatch stored state diverges:\nbatch:  %s\nappend: %s", got, want)
			}
			if got := renderDB(t, dbUniform); got != want {
				t.Fatalf("AppendUniform stored state diverges:\nuniform: %s\nappend:  %s", got, want)
			}
			if got := dbAppend.Stats().Appends; got != int64(wantAppends) {
				t.Fatalf("Appends = %d, want %d (accepted == landed)", got, wantAppends)
			}
		})
	}
}
