package trace

import (
	"errors"
	"strings"
	"testing"
	"time"
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
	vals := s.Values()
	if vals[0] != 1.5 || vals[1] != 2.5 {
		t.Fatalf("values = %v", vals)
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
