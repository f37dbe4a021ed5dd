package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"testing"

	"repro/internal/dcsim"
)

// FuzzIngestLine fuzzes the ingest fast path against encoding/json: on
// any input, if fastParseLine accepts, the slow path must accept the
// same line and produce the identical (series, time, value) — the
// property TestFastLineMatchesJSON checks on curated lines, here under
// coverage-guided mutation. A divergence is a second wire dialect: the
// fate of a point would depend on which parser happened to see it.
func FuzzIngestLine(f *testing.F) {
	// Curated seeds: the differential test's edge shapes.
	for _, raw := range []string{
		`{"series":"a/b","ts":1753600000,"value":1.5}`,
		`{"series":"a/b","ts":1753600000.25,"value":-3}`,
		`{"series":"a/b","ts":"2026-07-01T00:00:00Z","value":42}`,
		`{"series":"a/b","ts":"2026-07-01T00:00:00.123456789+02:00","value":0.001}`,
		`{"value":7,"ts":1753600000,"series":"reordered"}`,
		`{ "series" : "spaced" , "ts" : 1 , "value" : 2 }`,
		`{"series":"a/b","ts":1.7536e9,"value":1}`,
		`{"series":"esc\"aped","ts":1,"value":1}`,
		`{"series":"a","ts":1,"value":1,"extra":true}`,
		`{"series":"a","ts":{"nested":1},"value":1}`,
		`{"series":"","ts":1,"value":1}`,
		`{"series":"dup","ts":1,"ts":2,"value":1}`,
		`{"series":"a","ts":1,"value":+1.5}`,
		`{"series":"a","ts":.5,"value":1}`,
		`{"series":"a","ts":01,"value":1}`,
		`{"series":"a","ts":1,"value":1e}`,
		// Junk after nine fractional digits, which the ?from= parser once
		// cut off unseen: jsonNumber and encoding/json refuse both tokens
		// before timeFromUnixSeconds sees them, so ingest never took them.
		`{"series":"a","ts":1700000000.1234567890abc,"value":1}`,
		`{"series":"a","ts":1.123456789-5,"value":1}`,
		"{\"series\":\"ctrl\tchar\",\"ts\":1,\"value\":1}",
		`not json at all`,
		"",
		"\r\n",
	} {
		f.Add([]byte(raw))
	}
	// The number fast paths' edges (FuzzNumberFastPaths), as values and
	// as epochs.
	for _, tok := range numberEdges {
		f.Add(fmt.Appendf(nil, `{"series":"edge","ts":1753600000,"value":%s}`, tok))
		f.Add(fmt.Appendf(nil, `{"series":"edge","ts":%s,"value":1}`, tok))
	}
	// Hostile wire traffic: real lines a push client derives from the
	// regime generators — churned "#e0001" ids, skewed RFC3339Nano
	// stamps, backfilled duplicates — exactly what a live server chews
	// through in the chaos harness.
	for _, name := range []string{"cardinality", "clockskew"} {
		sc, err := dcsim.BuildScenario(name, 101, 4)
		if err != nil {
			f.Fatal(err)
		}
		g := dcsim.NewWireGen(sc, dcsim.WireConfig{SamplesPerRound: 8})
		for _, ws := range g.Round() {
			f.Add(fmt.Appendf(nil, `{"series":%q,"ts":%q,"value":%v}`,
				ws.ID, ws.Time.Format("2006-01-02T15:04:05.999999999Z07:00"), ws.Value))
		}
	}

	f.Fuzz(func(t *testing.T, raw []byte) {
		// The handler hands fastParseLine one "\r\n"-trimmed, non-empty
		// line; mirror that framing.
		line := bytes.TrimRight(raw, "\r\n")
		if len(line) == 0 {
			return
		}
		fl, ok := fastParseLine(line)
		if !ok {
			return // fast path bailed: the slow path owns the line
		}
		var in IngestLine
		if err := json.Unmarshal(line, &in); err != nil {
			t.Fatalf("fast path accepted %q but encoding/json rejects it: %v", line, err)
		}
		p, err := in.point()
		if err != nil {
			t.Fatalf("fast path accepted %q but the slow path rejects the point: %v", line, err)
		}
		if string(fl.series) != in.Series || !fl.t.Equal(p.Time) || math.Float64bits(fl.value) != math.Float64bits(p.Value) {
			t.Fatalf("parsers disagree on %q: fast (%s, %v, %v) vs slow (%s, %v, %v)",
				line, fl.series, fl.t, fl.value, in.Series, p.Time, p.Value)
		}
	})
}

// numberEdges are the number tokens where the fast conversions hand over
// to the library parsers: 15 and 16 significant digits, signed zeros, the
// smallest and largest exact powers of ten, trailing zeros, and 18- and
// 19-digit epochs.
var numberEdges = []string{
	"123456789012345", "1234567890123456", "-999999999999999", "9007199254740993",
	"0.123456789012345", "0.1234567890123456", "12345678.9012345", "1234567.89012345e0",
	"0", "-0", "-0.0", "0.000000000000001", "1.50", "100", "0.1", "0.3", "-41.25",
	"0.0000000000000000000001", "0.00000000000000000000001", "1e22", "5e-324",
	"1753600000", "-1753600000", "123456789012345678", "999999999999999999",
	"-999999999999999999", "1234567890123456789", "9223372036854775807",
	"1753600000.5", "1753600000.0",
}

// FuzzNumberFastPaths holds fastParseLine's two number conversions to the
// parsers they stand in for, on every token jsonNumber accepts: parseValue
// is strconv.ParseFloat in math.Float64bits (±Inf refused), and parseEpoch
// is timeFromUnixSeconds.
func FuzzNumberFastPaths(f *testing.F) {
	for _, tok := range numberEdges {
		f.Add(tok)
	}
	f.Fuzz(func(t *testing.T, tok string) {
		if !jsonNumber([]byte(tok)) {
			return
		}
		want, err := strconv.ParseFloat(tok, 64)
		wantOK := err == nil && !math.IsInf(want, 0)
		if v, ok := parseValue([]byte(tok)); ok != wantOK || ok && math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("parseValue(%q) = %v (%#x), %v; ParseFloat = %v (%#x), %v",
				tok, v, math.Float64bits(v), ok, want, math.Float64bits(want), err)
		}
		wantT, err := timeFromUnixSeconds(tok)
		if ts, ok := parseEpoch([]byte(tok)); ok != (err == nil) || ts != wantT {
			t.Fatalf("parseEpoch(%q) = %v, %v; timeFromUnixSeconds = %v, %v", tok, ts, ok, wantT, err)
		}
	})
}

// TestDecimalToken pins which tokens the fast conversions read, so the
// fuzz target above is not vacuously true: parseValue takes m < 10^15 and
// k ≤ 22, parseEpoch k = 0.
func TestDecimalToken(t *testing.T) {
	for _, c := range []struct {
		tok string
		m   uint64
		k   int
		ok  bool
	}{
		{"123456789012345", 123456789012345, 0, true},
		{"-0", 0, 0, true},
		{"-0.0", 0, 1, true},
		{"0.000000000000001", 1, 15, true},
		{"1.50", 150, 2, true},
		{"999999999999999999", 999999999999999999, 0, true},
		{"1234567890123456789", 0, 0, false},
		{"1e3", 0, 0, false},
	} {
		if m, k, ok := decimalToken([]byte(c.tok)); m != c.m || k != c.k || ok != c.ok {
			t.Errorf("decimalToken(%q) = %d, %d, %v; want %d, %d, %v", c.tok, m, k, ok, c.m, c.k, c.ok)
		}
	}
}
