package tsdb

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/series"
)

// TestConcurrentWritersAcrossShards drives parallel writers over many
// series with bounded retention — so compaction cascades are active the
// whole time — while readers hammer Query (every reader also reads one
// shared series), Stats, Snapshot and SetNyquistRate. Run under -race
// (the CI race job does), this is the shard-locking contract test.
func TestConcurrentWritersAcrossShards(t *testing.T) {
	db := New(Config{Shards: 8, Retention: RetentionConfig{RawCapacity: 64, TierCapacity: 32, Tiers: 2}})
	const (
		writers = 8
		perID   = 500
	)
	ids := make([]string, writers)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev%02d/metric", i)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Readers: range queries and operator reports racing the compaction
	// cascade.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[r%len(ids)]
				if res, err := db.Query(id, start, start.Add(perID*time.Second), 20); err == nil {
					if len(res.Points) > 20 {
						t.Errorf("budget exceeded: %d", len(res.Points))
						return
					}
				}
				// Every reader decodes the first series' open run too.
				_, _ = db.Full(ids[0])
				_ = db.Stats()
				_ = db.Snapshot()
				db.SetNyquistRate(id, 0.05)
			}
		}(r)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perID; i++ {
				db.Append(ids[w], series.Point{Time: start.Add(time.Duration(i) * time.Second), Value: float64(i)})
			}
		}(w)
	}
	// Wait for writers (the first `writers` Adds complete when counter
	// drops to reader count); simpler: separate group.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Writers finish on their own; readers need the stop signal. Poll the
	// append counter instead of sleeping blindly.
	deadline := time.After(30 * time.Second)
	for {
		if db.Stats().Appends == int64(writers*perID) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("writers did not finish in time")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done

	st := db.Stats()
	if st.Series != writers {
		t.Fatalf("series = %d, want %d", st.Series, writers)
	}
	if st.Appends != int64(writers*perID) {
		t.Fatalf("appends = %d, want %d", st.Appends, writers*perID)
	}
	// Conservation: every append is still raw, in a bucket, or counted
	// dropped.
	var inTiers int64
	for _, s := range db.Snapshot() {
		for _, ts := range s.Tiers {
			inTiers += ts.Samples
		}
	}
	if got := int64(st.RawPoints) + inTiers + st.Dropped; got != st.Appends {
		t.Fatalf("conservation: raw %d + tiered %d + dropped %d = %d, want %d",
			st.RawPoints, inTiers, st.Dropped, got, st.Appends)
	}
}

// TestConcurrentSameSeries is conservation under contention: eight
// writers race disjoint time ranges into one series (single shard lock),
// so whichever writer is ahead makes the others' points late. Every
// attempt is either accepted or rejected as out of order, exactly the
// accepted ones land, and the stored stream never goes backwards.
func TestConcurrentSameSeries(t *testing.T) {
	db := New(Config{Shards: 4, Retention: RetentionConfig{RawCapacity: 128}})
	const writers, perWriter = 8, 250
	var accepted, rejected atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				switch err := db.Append("hot", series.Point{Time: start.Add(time.Duration(g*perWriter+i) * time.Second), Value: 1}); err {
				case nil:
					accepted.Add(1)
				case ErrOutOfOrder:
					rejected.Add(1)
				default:
					t.Errorf("Append = %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	if got := accepted.Load() + rejected.Load(); got != writers*perWriter {
		t.Fatalf("accepted %d + rejected %d = %d, attempted %d", accepted.Load(), rejected.Load(), got, writers*perWriter)
	}
	if st := db.Stats(); st.Appends != accepted.Load() {
		t.Fatalf("appends = %d, accepted %d", st.Appends, accepted.Load())
	}
	// Stored order, not query order (a query sorts what it stitches).
	var stored []series.Point
	if err := db.ExportSeries(func(ss SeriesSnapshot) error {
		for _, blk := range ss.Raw {
			var err error
			if stored, err = blk.Points(stored); err != nil {
				return err
			}
		}
		stored = append(stored, ss.Active...)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(stored); i++ {
		if stored[i].Time.Before(stored[i-1].Time) {
			t.Fatalf("stored point %d at %v precedes %v", i, stored[i].Time, stored[i-1].Time)
		}
	}
	full, err := db.Full("hot")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(full.Points); i++ {
		if full.Points[i].Time.Before(full.Points[i-1].Time) {
			t.Fatalf("point %d at %v precedes %v", i, full.Points[i].Time, full.Points[i-1].Time)
		}
	}
}

// TestCacheConcurrentReadersWriters is the -race soak of the read path
// (named for the decoded-block cache it was written against): point and
// pattern queries against live ingest, forced seals and retention
// evictions. Run with -race in CI; correctness here is "no race, no
// panic, contract holds".
func TestCacheConcurrentReadersWriters(t *testing.T) {
	db := New(Config{Shards: 4,
		Retention: RetentionConfig{RawCapacity: 256, TierCapacity: 64, Tiers: 2, CompressBlock: 16}})
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("soak/dev%02d", i)
		fillSealed(db, ids[i], 128)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Writers: keep appending (sealing and evicting) across all series.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 128
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, id := range ids {
					db.Append(id, series.Point{Time: start.Add(time.Duration(i+w*100000) * time.Second), Value: float64(i)})
				}
				i++
			}
		}(w)
	}
	// A sealer forcing active-tail seals mid-read.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				db.SealAll()
			}
		}
	}()
	// Readers: point queries and pattern fan-ins.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id := ids[rng.Intn(len(ids))]
				from := start.Add(time.Duration(rng.Intn(256)) * time.Second)
				to := from.Add(time.Duration(1+rng.Intn(256)) * time.Second)
				if _, err := db.Query(id, from, to, 64); err != nil {
					t.Errorf("query: %v", err)
					return
				}
				mres := db.QueryMatch("soak/*", from, to, 64, 4)
				if len(mres.Results) > 4 {
					t.Errorf("match returned %d results over the 4-series cap", len(mres.Results))
					return
				}
			}
		}(r)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}
