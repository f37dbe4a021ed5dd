package trace

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/series"
)

func TestReadCSVRFC3339(t *testing.T) {
	in := "timestamp,value\n2021-11-10T00:00:00Z,1.5\n2021-11-10T00:01:00Z,2.5\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d, want 2", s.Len())
	}
	pts := s.Points()
	if pts[0].Value != 1.5 || pts[1].Value != 2.5 {
		t.Fatalf("points = %v", pts)
	}
}

func TestReadCSVUnixSeconds(t *testing.T) {
	in := "1636502400,10\n1636502460.5,20\n"
	s, err := ReadCSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Points()
	if pts[0].Time.Unix() != 1636502400 {
		t.Fatalf("first timestamp = %v", pts[0].Time)
	}
	if got := pts[1].Time.Sub(pts[0].Time); got != 60500*time.Millisecond {
		t.Fatalf("spacing = %v, want 60.5s", got)
	}
}

func TestReadCSVNoHeaderNoData(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("")); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
	if _, err := ReadCSV(strings.NewReader("timestamp,value\n")); !errors.Is(err, ErrNoData) {
		t.Fatalf("header-only err = %v, want ErrNoData", err)
	}
}

func TestReadCSVBadRows(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader("justonecolumn\n")); err == nil {
		t.Fatal("one column should fail")
	}
	if _, err := ReadCSV(strings.NewReader("2021-11-10T00:00:00Z,1\n2021-11-10T00:01:00Z,notanumber\n")); err == nil {
		t.Fatal("bad value in body should fail")
	}
	if _, err := ReadCSV(strings.NewReader("notatime,5\n")); err == nil {
		t.Fatal("bad timestamp should fail")
	}
}

// TestReadCSVEpochRange holds Unix-epoch timestamps to the int64-nanosecond
// range: a non-finite or out-of-range epoch is refused with its row, and an
// in-range fractional one keeps its fraction.
func TestReadCSVEpochRange(t *testing.T) {
	for _, tc := range []struct {
		epoch string
		want  time.Time // zero: refused
	}{
		{"NaN", time.Time{}},
		{"Inf", time.Time{}},
		{"-Inf", time.Time{}},
		{"1e300", time.Time{}},
		{"-1e300", time.Time{}},
		{"1636502400.25", time.Unix(1636502400, 250000000)},
	} {
		s, err := ReadCSV(strings.NewReader("1636502300,0\n" + tc.epoch + ",1\n"))
		if tc.want.IsZero() {
			if err == nil || !strings.HasPrefix(err.Error(), "trace: csv row 2:") {
				t.Errorf("epoch %s: err = %v, want a row 2 refusal", tc.epoch, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("epoch %s: %v", tc.epoch, err)
		}
		if got := s.Points()[1].Time; !got.Equal(tc.want) {
			t.Errorf("epoch %s read as %v, want %v", tc.epoch, got, tc.want)
		}
	}
}

// TestReadCSVImpliedGridRefused feeds nyquistscan's path two four-row
// traces whose median interval and span imply a grid of 3.6·10^12 and
// 9·10^9 slots: RegularizeAuto refuses both before allocating.
func TestReadCSVImpliedGridRefused(t *testing.T) {
	for _, in := range []string{
		"0,1\n0.000000001,2\n0.000000002,3\n3600,4\n",
		"0,1\n1,2\n2,3\n9000000000,4\n",
	} {
		s, err := ReadCSV(strings.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.RegularizeAuto(); !errors.Is(err, series.ErrGridTooLarge) {
			t.Errorf("%q: err = %v, want ErrGridTooLarge", in, err)
		}
	}
}
