// Command servebench is the BLU serving benchmark. It runs one named
// workload against blud / blufleet server processes built from this
// checkout and prints every metric by name with its unit. The last
// line of standard output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// Workloads:
//
//	solve    stateless controller queries against one memory-only blud:
//	         inline infers at N = 8, 16, 24 (every digest unique),
//	         joints, and blu/aa/pf schedules at the Fig-15 point.
//	refresh  the §3.7 streaming loop against one durable blud: 64
//	         sessions, each an observe batch then two session reads.
//	fleet    the refresh shape plus joints and schedules, routed by
//	         cell through blufleet -mode all (router + 3 durable shards).
//
// Each run has a closed-loop phase (one client per connection, back to
// back) for throughput and server CPU, then an open-loop phase at the
// workload's fixed rate for latency, each request timed from when it
// was due. With -trace 1 the run instead reports per-layer numbers:
// an untraced and a traced open-loop phase, an in-process replay of the
// traced requests' layer calls with a span around each, /metrics
// counter deltas, and in-process persist and fleet measurements.
//
// Usage (run.sh builds the binaries first):
//
//	servebench -bin DIR -work DIR --workload solve --seed 1 --seconds 36 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"

	"blu/internal/obs"
)

func main() {
	code := run()
	killAll()
	os.Exit(code)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd and perLayer name the metrics of the final JSON line, in
// the two modes (the same lists as BENCHMARK.json). Every other metric
// is printed and recorded but not gated: lat_p99_ms and
// write_lat_p99_ms because on a shared 2-vCPU host the 1% tail is set
// by pauses of the whole machine (gen_late_p99_ms, the generator's own
// lateness, tracks it), write_lat_* and error_rate because they do not
// exist on every workload or are 0 on a healthy run.
var endToEnd = []string{"setup_s", "throughput_rps", "lat_p50_ms", "cpu_ms_per_op", "rss_mb", "blueprint_accuracy"}

var perLayer = []string{
	"serve.self_ms", "serve.decode_us", "serve.encode_us", "serve.to_measurements_us",
	"serve.cache_hit_ratio", "serve.coalesced_ratio", "serve.invalidations_per_write", "serve.queue_rejects",
	"access.fold_us", "access.measurements_us",
	"blueprint.cold_infer_ms.N8", "blueprint.cold_infer_ms.N16", "blueprint.cold_infer_ms.N24",
	"blueprint.warm_infer_ms", "blueprint.starts_per_infer", "blueprint.iterations_per_infer", "blueprint.warm_hit_ratio",
	"joint.build_us", "joint.prob_us",
	"sched.build_us.blu", "sched.schedule_us.blu", "sched.schedule_us.aa", "sched.schedule_us.pf",
	"persist.append_us", "persist.sync_ms", "persist.appends_per_sync", "persist.snapshot_ms",
	"fleet.relay_overhead_ms", "fleet.ring_owner_ns", "fleet.exchange_round_ms", "fleet.exchange_dedup_ratio",
	"bench.gen_late_p99_ms", "bench.trace_overhead_ms", "bench.residual_ms",
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	switch {
	case name == "throughput_rps":
		return "req/s"
	case name == "rss_mb":
		return "MB"
	case name == "setup_s":
		return "s"
	case strings.HasSuffix(name, "_ratio") || name == "blueprint_accuracy" || name == "error_rate" ||
		strings.HasSuffix(name, "_per_infer") || strings.HasSuffix(name, "_per_write") || strings.HasSuffix(name, "_per_sync"):
		return "ratio"
	case strings.Contains(name, "_us"):
		return "us"
	case strings.Contains(name, "_ns"):
		return "ns"
	case strings.Contains(name, "_ms"):
		return "ms"
	default:
		return "count"
	}
}

// provenance identifies what was measured and how.
type provenance struct {
	GitDescribe       string  `json:"git_describe"`
	GoVersion         string  `json:"go_version"`
	GeneratorMaxProcs int     `json:"generator_gomaxprocs"`
	ServerMaxProcs    int     `json:"server_gomaxprocs"`
	NProc             int     `json:"nproc"`
	Seed              uint64  `json:"seed"`
	Seconds           int     `json:"seconds"`
	Trace             int     `json:"trace"`
	Params            *params `json:"workload"`
	Host              string  `json:"host_os_arch"`
}

// report is the recorded result file: provenance plus every metric,
// including the ones the final line does not carry.
type report struct {
	Provenance provenance        `json:"provenance"`
	Correct    bool              `json:"correct"`
	CheckError string            `json:"check_error,omitempty"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	Metrics    map[string]metric `json:"metrics"`
}

func run() int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "solve | refresh | fleet")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	binDir := fs.String("bin", ".bench_build/bin", "directory holding blud and blufleet")
	workDir := fs.String("work", ".bench_build/run", "scratch directory for state, logs and results")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	p, err := workloadParams(*workload, *seconds)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: bad arguments: workload %q seconds %d trace %d (%v)\n", *workload, *seconds, *trace, err)
		return 2
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	// The generator shares the CPUs with the servers; fewer, larger
	// collections of its (small) heap disturb them less.
	debug.SetGCPercent(400)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runDir := filepath.Join(*workDir, fmt.Sprintf("%s-%d-%d", p.Name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	rep := &report{
		Provenance: provenance{
			GitDescribe:       obs.GitDescribe(),
			GoVersion:         runtime.Version(),
			GeneratorMaxProcs: runtime.GOMAXPROCS(0),
			ServerMaxProcs:    nproc,
			NProc:             nproc,
			Seed:              *seed,
			Seconds:           *seconds,
			Trace:             *trace,
			Params:            p,
			Host:              runtime.GOOS + "/" + runtime.GOARCH,
		},
		Metrics: map[string]metric{},
	}
	start := time.Now()
	defer func() { fmt.Fprintf(os.Stderr, "servebench: run took %.1fs\n", time.Since(start).Seconds()) }()
	b := &bench{p: p, seed: *seed, seconds: float64(*seconds), binDir: *binDir, runDir: runDir, nproc: nproc, rep: rep}
	if *trace == 1 {
		err = b.traced(ctx)
	} else {
		err = b.timed(ctx)
	}
	var checkErr *checkError
	switch {
	case errors.As(err, &checkErr):
		rep.CheckError = checkErr.Error()
	case err != nil:
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	rep.Correct = rep.CheckError == "" && rep.Failed == 0

	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	extra := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		extra = append(extra, name)
	}
	sort.Strings(extra)
	for _, name := range extra {
		m := rep.Metrics[name]
		fmt.Printf("%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	final := map[string]metric{}
	for _, name := range names {
		m, ok := rep.Metrics[name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "servebench: metric %s was not measured\n", name)
			return 1
		}
		final[name] = m
	}
	resultPath := filepath.Join(*workDir, "results", fmt.Sprintf("%s-seed%d-trace%d.json", p.Name, *seed, *trace))
	if err := writeJSON(resultPath, rep); err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	if rep.CheckError != "" {
		fmt.Fprintln(os.Stderr, "servebench: output check failed:", rep.CheckError)
	}
	if rep.Failed > 0 {
		fmt.Fprintf(os.Stderr, "servebench: %d of %d requests failed\n", rep.Failed, rep.Attempted)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, final})
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// checkError is an output-check failure: the run still reports, but
// is not correct.
type checkError struct{ err error }

func (e *checkError) Error() string { return e.err.Error() }

// Fixed open-loop rates, about a fifth of each workload's closed-loop
// capacity on a 2-CPU host.
const (
	solveRate   = 100
	refreshRate = 500
	fleetRate   = 250
)

// A timed run spends warmShare of -seconds warming up, then the rest in
// equal rounds of closed loop (closedShare of a round, its first tenth
// unmeasured) followed by open loop; keptRounds of them give the
// figures. A traced run gives traceShare of -seconds to each of its
// untraced and traced open-loop phases.
const (
	warmShare   = 0.05
	rounds      = 5
	keptRounds  = 3
	closedShare = 0.2
	traceShare  = 0.40
)

// roundResult is one round of a timed run.
type roundResult struct {
	steal         float64 // host CPU share stolen by the hypervisor
	tput, cpu     float64
	lat, writeLat []float64 // open-loop latencies, ms
}

// setupRepeats is how many times a timed run launches and pre-seeds
// its servers; setup_s is the median.
const setupRepeats = 9

func workloadParams(name string, seconds int) (*params, error) {
	p := &params{Name: name, Conns: runtime.NumCPU()}
	switch name {
	case "solve":
		p.Rate = solveRate
	case "refresh":
		p.Rate, p.Sessions, p.Durable = refreshRate, refreshSessions, true
	case "fleet":
		p.Rate, p.Sessions, p.Shards, p.DirectorySeed, p.Durable = fleetRate, fleetCells, fleetShards, fleetDirectorySeed, true
	default:
		return nil, fmt.Errorf("unknown workload %q (want solve, refresh or fleet)", name)
	}
	if p.Durable {
		// Snapshots fire at 0.4 and 0.8 of the run: two whole cycles
		// inside the timed phases, none at their edges.
		p.SnapshotCycles = 2
		p.SnapshotInterval = time.Duration(float64(seconds) / (float64(p.SnapshotCycles) + 0.5) * float64(time.Second))
	}
	return p, nil
}

// bench is one run's state.
type bench struct {
	p       *params
	seed    uint64
	seconds float64
	binDir  string
	runDir  string
	nproc   int
	rep     *report

	in      *inputs
	d       *deployment
	clients []*http.Client
	pre     []*outcome
	ids     int64 // last request id handed out
}

func (b *bench) set(name string, v float64) {
	b.rep.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func (b *bench) secs(share float64) time.Duration {
	return time.Duration(share * b.seconds * float64(time.Second))
}

// setup launches the servers and pre-seeds every session, repeats
// times, keeping the last deployment; it returns each setup's seconds.
func (b *bench) setup(ctx context.Context, repeats int) ([]float64, error) {
	var times []float64
	for a := 0; a < repeats; a++ {
		b.ids = 0
		t0 := time.Now()
		d, err := launch(ctx, b.p, b.binDir, b.runDir, b.nproc, a)
		if err != nil {
			return nil, err
		}
		b.clients = make([]*http.Client, b.p.Conns)
		for c := range b.clients {
			b.clients[c] = newConnClient()
		}
		pre, err := preseed(ctx, d, b.clients, b.in, &b.ids)
		if err != nil {
			d.stop()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if a < repeats-1 {
			// A throwaway deployment: kill it rather than drain it.
			b.closeClients()
			if err := d.kill(); err != nil {
				return nil, err
			}
			continue
		}
		b.d, b.pre = d, pre
	}
	return times, nil
}

func (b *bench) closeClients() {
	for _, c := range b.clients {
		c.CloseIdleConnections()
	}
}

// teardown stops the servers; the run fails if one exits badly.
func (b *bench) teardown() error {
	b.closeClients()
	if b.d == nil {
		return nil
	}
	err := b.d.stop()
	b.d = nil
	return err
}

// tally counts attempted and failed requests.
func (b *bench) tally(outcomes []*outcome) {
	var firstErr error
	for _, o := range outcomes {
		b.rep.Attempted++
		if !o.ok() {
			b.rep.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: status %d %s %v", kindPath[o.req.kind], o.status, strings.TrimSpace(string(o.body)), o.err)
			}
		}
	}
	if firstErr != nil {
		fmt.Fprintln(os.Stderr, "servebench: first failed request:", firstErr)
	}
}

// timed is the untraced run: end-to-end metrics.
func (b *bench) timed(ctx context.Context) error {
	var err error
	if b.in, err = genInputs(b.p.Name, b.seed); err != nil {
		return err
	}
	t0 := time.Now()
	setups, err := b.setup(ctx, setupRepeats)
	if err != nil {
		return err
	}
	defer b.teardown()
	b.set("setup_s", median(setups))
	stage := func(name string) {
		fmt.Fprintf(os.Stderr, "servebench: %s took %.2fs\n", name, time.Since(t0).Seconds())
		t0 = time.Now()
	}
	stage("setup")
	streams := b.in.streams(b.p.Name, b.p.Conns)
	before, err := fetchCounters(ctx, http.DefaultClient, b.d.base)
	if err != nil {
		return err
	}

	// Rounds of closed loop then open loop, so that drift in the host's
	// speed during the run reaches both phases alike. The keptRounds
	// rounds in which the hypervisor stole the least CPU time from this
	// host give the figures: throughput, CPU and p50 as medians over
	// them, p99 over their pooled samples. Steal is a property of the
	// host, not of the program, so a slower program reads slower in
	// every round and no change of the program's own can hide.
	steal0, err := hostSteal()
	if err != nil {
		return err
	}
	warm, err := closedLoop(ctx, b.d, b.clients, streams, b.secs(warmShare), 0, &b.ids)
	if err != nil {
		return err
	}
	all := warm.outcomes
	var late []float64
	var rs []*roundResult
	round := b.secs((1 - warmShare) / rounds)
	closedDur := time.Duration(closedShare * float64(round))
	nOpen := int(math.Round(b.p.Rate * (round - closedDur).Seconds()))
	for r := 0; r < rounds; r++ {
		s0, err := hostSteal()
		if err != nil {
			return err
		}
		closed, err := closedLoop(ctx, b.d, b.clients, streams, closedDur/10, closedDur-closedDur/10, &b.ids)
		if err != nil {
			return err
		}
		if closed.completed == 0 {
			return fmt.Errorf("closed loop completed no request")
		}
		open := openLoop(ctx, b.d, b.clients, streams, b.p.Rate, nOpen, &b.ids)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		s1, err := hostSteal()
		if err != nil {
			return err
		}
		all = append(append(all, closed.outcomes...), open...)
		rr := &roundResult{
			steal: ratio(s1.steal-s0.steal, s1.total-s0.total),
			tput:  float64(closed.completed) / closed.window.Seconds(),
			cpu:   float64(closed.cpuTicks) * 1000 / userHZ / float64(closed.completed),
		}
		for _, o := range open {
			rr.lat = append(rr.lat, ms(o.t.latency()))
			late = append(late, ms(o.t.lateness()))
			if o.req.kind == kObserve {
				rr.writeLat = append(rr.writeLat, ms(o.t.latency()))
			}
		}
		rs = append(rs, rr)
	}
	steal1, err := hostSteal()
	if err != nil {
		return err
	}
	after, err := fetchCounters(ctx, http.DefaultClient, b.d.base)
	if err != nil {
		return err
	}
	rss, err := b.d.peakRSSMB()
	if err != nil {
		return err
	}
	b.tally(all)
	stage("timed phases")

	sort.SliceStable(rs, func(i, j int) bool { return rs[i].steal < rs[j].steal })
	var tput, cpu, p50s, wp50s, lat, writeLat, keptSteal []float64
	for _, rr := range rs[:keptRounds] {
		tput, cpu = append(tput, rr.tput), append(cpu, rr.cpu)
		p50s, lat = append(p50s, median(rr.lat)), append(lat, rr.lat...)
		if len(rr.writeLat) > 0 {
			wp50s, writeLat = append(wp50s, median(rr.writeLat)), append(writeLat, rr.writeLat...)
		}
		keptSteal = append(keptSteal, rr.steal)
	}
	b.set("throughput_rps", median(tput))
	b.set("cpu_ms_per_op", median(cpu))
	b.set("rss_mb", rss)
	b.set("error_rate", ratio(int64(b.rep.Failed), int64(b.rep.Attempted)))
	// The share of the host's CPU time its hypervisor gave to others
	// during the timed phases, and during the kept rounds: when high,
	// every timing reads slow.
	b.set("host_steal_ratio", ratio(steal1.steal-steal0.steal, steal1.total-steal0.total))
	b.set("kept_rounds_steal_ratio", keptSteal[len(keptSteal)-1])
	// p99 pools the rounds: a round alone leaves few samples beyond it.
	p99, beyond, err := tailPercentile(lat, 0.99, 10)
	if err != nil {
		return fmt.Errorf("open loop: %w", err)
	}
	b.set("lat_p50_ms", median(p50s))
	b.set("lat_p99_ms", p99)
	b.set("lat_samples", float64(len(lat)))
	b.set("lat_beyond_p99", float64(beyond))
	b.set("gen_late_p99_ms", percentile(late, 0.99))
	if len(writeLat) > 0 {
		b.set("write_lat_p50_ms", median(wp50s))
		b.set("write_samples", float64(len(writeLat)))
		// Pooled over the rounds: one round holds too few writes.
		if wp99, _, err := tailPercentile(writeLat, 0.99, 10); err == nil {
			b.set("write_lat_p99_ms", wp99)
		} else {
			fmt.Fprintln(os.Stderr, "servebench: write_lat_p99_ms not reported:", err)
		}
	}

	// Output checks, after the timed window.
	if b.rep.Failed > 0 {
		return b.teardown()
	}
	rp, err := newReplayer(filepath.Join(b.runDir, "replay-wal"))
	if err != nil {
		return err
	}
	defer rp.close()
	var checkErr error
	switch b.p.Name {
	case "solve":
		checkErr = checkSolve(all, rp)
	case "refresh":
		checkErr = checkRefresh(append(append([]*outcome(nil), b.pre...), all...), b.pre[len(b.pre)-1].id, before, after)
	case "fleet":
		checkErr = checkFleetStateless(ctx, all, b.binDir, b.runDir, b.nproc)
	}
	stage("checks")
	acc, err := accuracy(ctx, b.d.base, b.in, rp)
	stage("accuracy")
	if err != nil && checkErr == nil {
		checkErr = err
	}
	b.set("blueprint_accuracy", acc)
	if err := b.teardown(); err != nil {
		return err
	}
	stage("teardown")
	if checkErr != nil {
		return &checkError{checkErr}
	}
	return nil
}
