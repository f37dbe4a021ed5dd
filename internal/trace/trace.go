// Package trace reads monitoring traces so that external data (e.g. a
// real production export) can be audited with the same pipeline the
// simulated fleet uses. The CSV format is two columns — timestamp, value
// — where the timestamp is RFC 3339 or a Unix epoch in seconds
// (fractional allowed).
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"repro/internal/series"
)

// ErrNoData is returned when a reader yields no usable rows.
var ErrNoData = errors.New("trace: no data rows")

// ReadCSV parses a two-column timestamp,value stream. A header row is
// skipped automatically when its value column does not parse as a number.
func ReadCSV(r io.Reader) (*series.Series, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.TrimLeadingSpace = true
	s := &series.Series{}
	row := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", row+1, err)
		}
		row++
		if len(rec) < 2 {
			return nil, fmt.Errorf("trace: csv row %d: need 2 columns, got %d", row, len(rec))
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(rec[1]), 64)
		if err != nil {
			if row == 1 {
				continue // header
			}
			return nil, fmt.Errorf("trace: csv row %d: bad value %q", row, rec[1])
		}
		ts, err := parseTimestamp(strings.TrimSpace(rec[0]))
		if err != nil {
			return nil, fmt.Errorf("trace: csv row %d: %w", row, err)
		}
		s.Append(series.Point{Time: ts, Value: v})
	}
	if s.Len() == 0 {
		return nil, ErrNoData
	}
	return s, nil
}

func parseTimestamp(s string) (time.Time, error) {
	if ts, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return ts, nil
	}
	if ts, err := time.Parse(time.RFC3339, s); err == nil {
		return ts, nil
	}
	if sec, err := strconv.ParseFloat(s, 64); err == nil {
		// int64(sec) is undefined past the int64 range, and a NaN or
		// infinite epoch names no time: refuse what the store's int64
		// nanoseconds cannot hold.
		if !(math.Abs(sec) < math.MaxInt64/1e9) {
			return time.Time{}, fmt.Errorf("trace: epoch %q outside the int64-nanosecond range", s)
		}
		whole := int64(sec)
		frac := sec - float64(whole)
		return time.Unix(whole, int64(frac*1e9)).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("trace: unparseable timestamp %q", s)
}
