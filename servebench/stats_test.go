package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct {
		q    float64
		want float64
	}{{0.5, 3}, {0.2, 1}, {0.21, 2}, {0.99, 5}, {1, 5}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input")
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	// 1000 samples: p99 is rank 990, leaving exactly 10 beyond it.
	v, beyond, err := tailPercentile(mk(1000), 0.99, 10)
	if err != nil || v != 990 || beyond != 10 {
		t.Fatalf("n=1000: v=%v beyond=%d err=%v", v, beyond, err)
	}
	// 999 samples leave only 9 beyond p99.
	if _, beyond, err := tailPercentile(mk(999), 0.99, 10); err == nil || beyond != 9 {
		t.Fatalf("n=999: beyond=%d err=%v, want refusal with 9 beyond", beyond, err)
	}
	if _, _, err := tailPercentile(nil, 0.99, 10); err == nil {
		t.Fatal("no samples accepted")
	}
}

func TestDueTimeLatencyAndLateness(t *testing.T) {
	t0 := time.Unix(100, 0)
	// Sent 30ms late because the connection was busy; served in 5ms.
	late := timing{due: t0, sent: t0.Add(30 * time.Millisecond), done: t0.Add(35 * time.Millisecond)}
	if got := late.latency(); got != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms counted from due", got)
	}
	if got := late.lateness(); got != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", got)
	}
	// Sent on time (a hair early is clamped to zero lateness).
	early := timing{due: t0, sent: t0.Add(-time.Microsecond), done: t0.Add(2 * time.Millisecond)}
	if early.lateness() != 0 || early.latency() != 2*time.Millisecond {
		t.Errorf("on-time request: lateness %v latency %v", early.lateness(), early.latency())
	}
}

func TestParseProcAccounting(t *testing.T) {
	stat := "4242 (blu d) (x) S 1 4242 4242 0 -1 4194560 1043 0 0 0 150 37 0 0 20 0 9 0 1234 2000000 900 18446744073709551615"
	ticks, err := parseStatCPU(stat)
	if err != nil || ticks != 187 {
		t.Fatalf("parseStatCPU = %d, %v; want 187", ticks, err)
	}
	if _, err := parseStatCPU("4242 blud S 1"); err == nil {
		t.Error("stat without a command field accepted")
	}
	status := "Name:\tblud\nVmPeak:\t  900000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t   18000 kB\n"
	kb, err := parseVmHWM(status)
	if err != nil || kb != 20480 {
		t.Fatalf("parseVmHWM = %d, %v; want 20480", kb, err)
	}
	if _, err := parseVmHWM("Name:\tblud\n"); err == nil {
		t.Error("status without VmHWM accepted")
	}
	host, err := parseHostCPU("cpu  100 0 20 300 5 0 3 12 0 0\ncpu0 50 0 10 150 2 0 1 6 0 0\n")
	if err != nil || host.steal != 12 || host.total != 440 {
		t.Fatalf("parseHostCPU = %+v, %v; want steal 12 of 440", host, err)
	}
	if _, err := parseHostCPU("intr 1 2 3\n"); err == nil {
		t.Error("stat without a cpu line accepted")
	}
}

func TestCounterDeltaRatios(t *testing.T) {
	before := counters{"hit": 10, "miss": 5}
	after := counters{"hit": 16, "miss": 7, "new": 3}
	if d := delta(before, after, "new"); d != 3 {
		t.Errorf("delta from a missing base = %d, want 3", d)
	}
	if got := ratio(delta(before, after, "hit"), delta(before, after, "hit")+delta(before, after, "miss")); got != 0.75 {
		t.Errorf("hit ratio = %v, want 0.75", got)
	}
	if got := ratio(delta(before, after, "absent"), 0); got != 0 {
		t.Errorf("zero-base ratio = %v, want 0", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(a, b int) span {
		return span{Start: t0.Add(time.Duration(a) * time.Millisecond), End: t0.Add(time.Duration(b) * time.Millisecond)}
	}
	parent := at(0, 10)
	// Two children overlap on [3,4): they cover 1..4 and 6..8 = 5ms.
	kids := []span{at(6, 8), at(1, 4), at(3, 4)}
	if got := covered(kids); got != 5*time.Millisecond {
		t.Errorf("covered = %v, want 5ms", got)
	}
	if got := selfTime(parent, kids); got != 5*time.Millisecond {
		t.Errorf("selfTime = %v, want 5ms", got)
	}
	if got := selfTime(parent, nil); got != 10*time.Millisecond {
		t.Errorf("selfTime without children = %v, want 10ms", got)
	}
}
