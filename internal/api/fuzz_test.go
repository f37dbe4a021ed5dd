package api

import (
	"bytes"
	"encoding/json"
	"fmt"
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
		if string(fl.series) != in.Series || !fl.t.Equal(p.Time) || fl.value != p.Value {
			t.Fatalf("parsers disagree on %q: fast (%s, %v, %v) vs slow (%s, %v, %v)",
				line, fl.series, fl.t, fl.value, in.Series, p.Time, p.Value)
		}
	})
}
