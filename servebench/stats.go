package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// rank returns the 1-based nearest-rank index of quantile q among n
// sorted samples: the smallest rank whose share of samples at or below
// it reaches q.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile is the nearest-rank q-quantile of xs (0 for no samples).
// xs is not modified.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), q)-1]
}

// tailPercentile is percentile plus the number of samples ranked
// beyond it. It refuses (with an error) a tail the sample cannot
// support: fewer than minBeyond samples past the quantile.
func tailPercentile(xs []float64, q float64, minBeyond int) (v float64, beyond int, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("p%g: no samples", q*100)
	}
	beyond = len(xs) - rank(len(xs), q)
	v = percentile(xs, q)
	if beyond < minBeyond {
		return v, beyond, fmt.Errorf("p%g: %d samples leave %d beyond it, want at least %d", q*100, len(xs), beyond, minBeyond)
	}
	return v, beyond, nil
}

// median is the 0.5 nearest-rank quantile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// timing is one open-loop request's clock: when it was due, when the
// generator actually sent it, and when its response completed.
type timing struct {
	due, sent, done time.Time
}

// latency is measured from the due time, so a stall that delays later
// sends counts against every request it delayed.
func (t timing) latency() time.Duration { return t.done.Sub(t.due) }

// lateness is how far behind schedule the generator sent the request.
func (t timing) lateness() time.Duration {
	if t.sent.Before(t.due) {
		return 0
	}
	return t.sent.Sub(t.due)
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// userHZ is the fixed tick rate of the CPU times in /proc/<pid>/stat.
const userHZ = 100

// parseStatCPU returns utime+stime, in ticks, from a /proc/<pid>/stat
// line. The command name may hold spaces and parentheses, so fields are
// counted from the last ')'.
func parseStatCPU(stat string) (int64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// After the command come state (field 3) ... utime (14), stime (15).
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after command", len(f))
	}
	utime, err := strconv.ParseInt(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat utime: %w", err)
	}
	stime, err := strconv.ParseInt(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseVmHWM returns the peak resident set size, in kB, from a
// /proc/<pid>/status file.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("status: malformed VmHWM %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// cpuTimes are the host-wide steal and total tick counts of the "cpu"
// line of /proc/stat.
type cpuTimes struct{ steal, total int64 }

// parseHostCPU reads the aggregate "cpu" line of /proc/stat: user,
// nice, system, idle, iowait, irq, softirq, steal (guest time is
// already inside user and nice, so it is not added again).
func parseHostCPU(stat string) (cpuTimes, error) {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("/proc/stat: no aggregate cpu line")
	}
	var t cpuTimes
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseInt(f[i], 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("/proc/stat: %w", err)
		}
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t, nil
}

// counters is a /metrics counter snapshot.
type counters map[string]int64

// delta is how far counter name moved from before to after.
func delta(before, after counters, name string) int64 { return after[name] - before[name] }

// ratio is num/den, 0 when nothing happened (den == 0): a layer the
// workload never reaches reports 0, not NaN.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// span is one traced call. Spans of one request share Req; Parent is
// the ID of the span that caused it (0 for a request's root).
type span struct {
	Name       string
	Req        int64
	ID, Parent int64
	Start, End time.Time
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// covered is the length of the union of the spans' intervals: time two
// overlapping children share counts once.
func covered(spans []span) time.Duration {
	if len(spans) == 0 {
		return 0
	}
	s := append([]span(nil), spans...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start.Before(s[j].Start) })
	var total time.Duration
	curS, curE := s[0].Start, s[0].End
	for _, x := range s[1:] {
		if x.Start.After(curE) {
			total += curE.Sub(curS)
			curS, curE = x.Start, x.End
			continue
		}
		if x.End.After(curE) {
			curE = x.End
		}
	}
	return total + curE.Sub(curS)
}

// selfTime is the parent's duration minus the time its children cover.
func selfTime(parent span, kids []span) time.Duration { return parent.dur() - covered(kids) }
