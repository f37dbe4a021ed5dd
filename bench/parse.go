// Small parsers and statistics the driver reads the daemon with: sample
// percentiles, /proc/<pid>/stat, Prometheus text exposition (counters,
// gauges and histogram quantiles over a delta), and the pprof heap
// summary. Each has a table test in bench_test.go.

package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is sorted in place. An
// empty sample yields 0.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// iqrRatio is (Q3 − Q1) / median of xs, the spread diagnostic.
func iqrRatio(xs []float64) float64 {
	med := percentile(xs, 0.5)
	if med == 0 {
		return 0
	}
	return (percentile(xs, 0.75) - percentile(xs, 0.25)) / med
}

// clockTick is USER_HZ: the unit of utime/stime in /proc/<pid>/stat. It
// is 100 on every Linux the Go runtime supports.
const clockTick = 100

// procStat is the part of /proc/<pid>/stat the driver uses.
type procStat struct {
	cpuSeconds float64 // utime + stime
	rssBytes   int64
}

// parseProcStat parses one /proc/<pid>/stat line. The command name sits
// in parentheses and may itself contain spaces and parentheses, so
// fields are counted from the last ')'.
func parseProcStat(line string) (procStat, error) {
	end := strings.LastIndexByte(line, ')')
	if end < 0 {
		return procStat{}, fmt.Errorf("proc stat: no command field in %q", line)
	}
	f := strings.Fields(line[end+1:])
	// f[0] is field 3 (state); utime, stime and rss are fields 14, 15, 24.
	if len(f) < 22 {
		return procStat{}, fmt.Errorf("proc stat: %d fields after the command, want at least 22", len(f))
	}
	utime, err1 := strconv.ParseUint(f[11], 10, 64)
	stime, err2 := strconv.ParseUint(f[12], 10, 64)
	rss, err3 := strconv.ParseInt(f[21], 10, 64)
	if err1 != nil || err2 != nil || err3 != nil {
		return procStat{}, fmt.Errorf("proc stat: non-numeric utime/stime/rss in %q", line)
	}
	return procStat{
		cpuSeconds: float64(utime+stime) / clockTick,
		rssBytes:   rss * int64(os.Getpagesize()),
	}, nil
}

func readProcStat(pid int) (procStat, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStat{}, err
	}
	return parseProcStat(string(b))
}

// promSnapshot is one scrape: sample name with its label set, verbatim
// from the exposition line, to value.
type promSnapshot map[string]float64

// parseProm parses Prometheus text exposition 0.0.4 as nyquistd writes
// it: comment lines skipped, one `name{labels} value` per line.
func parseProm(text []byte) (promSnapshot, error) {
	snap := promSnapshot{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prometheus text: no value in %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prometheus text: bad value in %q", line)
		}
		snap[line[:sp]] = v
	}
	return snap, sc.Err()
}

// delta is after[name] − before[name]; a missing sample counts as 0.
func delta(before, after promSnapshot, name string) float64 { return after[name] - before[name] }

// histQuantile estimates the q-quantile of the observations a histogram
// took between two scrapes, interpolating linearly inside the bucket the
// rank falls in, as Prometheus' histogram_quantile does. family is the
// name without _bucket; labels is the label text before le (for example
// `handler="ingest"`), empty for an unlabeled histogram. No observations
// yields 0.
func histQuantile(before, after promSnapshot, family, labels string, q float64) float64 {
	prefix := family + "_bucket{"
	if labels != "" {
		prefix += labels + ","
	}
	prefix += `le="`
	type bucket struct{ le, cum float64 }
	var bs []bucket
	for name, v := range after {
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, `"}`) {
			continue
		}
		leText := name[len(prefix) : len(name)-2]
		le := math.Inf(1)
		if leText != "+Inf" {
			var err error
			if le, err = strconv.ParseFloat(leText, 64); err != nil {
				continue
			}
		}
		bs = append(bs, bucket{le, v - before[name]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	if len(bs) == 0 || bs[len(bs)-1].cum <= 0 {
		return 0
	}
	rank := q * bs[len(bs)-1].cum
	for i, b := range bs {
		if b.cum < rank {
			continue
		}
		if math.IsInf(b.le, 1) {
			// The rank lies past the last finite bound; that bound is all
			// the histogram knows.
			if i == 0 {
				return 0
			}
			return bs[i-1].le
		}
		lo, below := 0.0, 0.0
		if i > 0 {
			lo, below = bs[i-1].le, bs[i-1].cum
		}
		if b.cum == below {
			return b.le
		}
		return lo + (b.le-lo)*(rank-below)/(b.cum-below)
	}
	return 0
}

// parseHeapInuse extracts HeapInuse from /debug/pprof/heap?debug=1,
// whose trailer lists runtime.MemStats as `# Name = value` lines.
func parseHeapInuse(text []byte) (int64, error) {
	const key = "# HeapInuse = "
	i := bytes.Index(text, []byte(key))
	if i < 0 {
		return 0, fmt.Errorf("heap profile: no HeapInuse line")
	}
	rest := text[i+len(key):]
	if nl := bytes.IndexByte(rest, '\n'); nl >= 0 {
		rest = rest[:nl]
	}
	return strconv.ParseInt(strings.TrimSpace(string(rest)), 10, 64)
}
