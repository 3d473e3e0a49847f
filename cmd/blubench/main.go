// Command blubench records the repo's performance baseline: it runs
// the core inference micro-benchmarks (deterministic multi-start
// inference and the MCMC baseline) across parallelism settings plus
// the per-subframe scheduler kernels via testing.Benchmark and writes
// the ns/op table, together with the parallel-vs-sequential speedups,
// to a JSON file in the obs.BenchReport schema.
//
// Usage:
//
//	blubench [-o BENCH_baseline.json] [-sched] [-metrics file] [-pprof addr]
//
// With -sched only the scheduler, JSON codec, warm-start, and
// /v1/observe sections run — a seconds-scale subset CI uses as its
// kernel-smoke gate (the full inference sweep takes minutes). The determinism test suite
// guarantees every parallelism setting returns the identical topology,
// so each speedup line is a pure wall-clock comparison of the same
// computation.
//
// The obs layer is enabled for the run, so the written baseline embeds
// the metric snapshot (inference starts/iterations, MCMC acceptance,
// scheduler cache hit/miss/reset counts) alongside the timings — the
// BENCH file records what work the numbers measured, not just how long
// it took.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"blu"
	"blu/internal/blueprint"
	"blu/internal/mcmc"
	"blu/internal/obs"
	"blu/internal/rng"
	"blu/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "blubench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("blubench", flag.ContinueOnError)
	out := fs.String("o", "BENCH_baseline.json", "output file")
	schedOnly := fs.Bool("sched", false, "run only the scheduler-kernel and codec sections (fast; CI smoke)")
	metrics := fs.String("metrics", "", "also write a JSON run manifest to this file")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *pprofAddr != "" {
		addr, err := obs.ServePprof(*pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(os.Stderr, "blubench: pprof on http://%s/debug/pprof/\n", addr)
	}

	// The baseline always embeds the metric snapshot; reset first so the
	// counts describe exactly this benchmark run.
	obs.Enable()
	obs.Reset()
	var man *obs.Manifest
	if *metrics != "" {
		man = obs.NewManifest("blubench", args)
		man.Config = map[string]any{"out": *out, "sched": *schedOnly}
	}

	base := &obs.BenchReport{
		GoVersion:   runtime.Version(),
		GitDescribe: obs.GitDescribe(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Speedups:    map[string]float64{},
	}
	if base.GOMAXPROCS == 1 {
		base.Note = "single-CPU machine: P>1 timeslices on one core, so the " +
			"speedup column measures overhead, not scaling; re-run on a " +
			"multi-core host for wall-clock numbers"
		fmt.Fprintln(os.Stderr, "blubench: GOMAXPROCS=1 —", base.Note)
	}

	record := func(name string, fn func(i int) error) obs.BenchEntry {
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(i); err != nil {
					b.Fatal(err)
				}
			}
		})
		e := obs.BenchEntry{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			MsPerOp:     float64(r.NsPerOp()) / 1e6,
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		base.Entries = append(base.Entries, e)
		fmt.Printf("%-28s %12d ns/op  %9.2f ms/op  %6d allocs/op  (%d iters)\n",
			name, e.NsPerOp, e.MsPerOp, e.AllocsPerOp, e.Iterations)
		return e
	}

	if !*schedOnly {
		// Deterministic multi-start inference across parallelism settings.
		// P=1 is the sequential baseline; P=0 uses every core.
		for _, n := range []int{8, 16, 24} {
			truth := randomTopo(n, n+n/2, 7)
			meas := truth.Measure()
			perSetting := map[int]int64{}
			for _, par := range []int{1, 2, 4, 0} {
				par := par
				e := record(inferLabel(n, par), func(i int) error {
					_, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: uint64(i), Parallelism: par})
					return err
				})
				perSetting[par] = e.NsPerOp
			}
			for _, par := range []int{2, 4, 0} {
				if perSetting[par] > 0 {
					base.Speedups[inferLabel(n, par)+"_vs_P=1"] =
						float64(perSetting[1]) / float64(perSetting[par])
				}
			}
		}

		// MCMC baseline: 4 chains sequential vs parallel.
		{
			truth := randomTopo(12, 18, 7)
			meas := truth.Measure()
			perSetting := map[int]int64{}
			for _, par := range []int{1, 4} {
				par := par
				e := record(fmt.Sprintf("MCMC/N=12/Chains=4/P=%d", par), func(i int) error {
					_, err := mcmc.Infer(meas, mcmc.Options{Seed: uint64(i), Chains: 4, Parallelism: par})
					return err
				})
				perSetting[par] = e.NsPerOp
			}
			if perSetting[4] > 0 {
				base.Speedups["MCMC/N=12/Chains=4/P=4_vs_P=1"] =
					float64(perSetting[1]) / float64(perSetting[4])
			}
		}
	}

	if err := recordSchedulers(record); err != nil {
		return err
	}
	recordCodec(record)
	if err := recordWarmStart(record, base); err != nil {
		return err
	}
	if err := recordObserve(record); err != nil {
		return err
	}

	base.Metrics = obs.Snap()
	if err := base.Validate(); err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if len(base.Speedups) > 0 {
		fmt.Printf("\nspeedups:\n")
		keys := make([]string, 0, len(base.Speedups))
		for k := range base.Speedups {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Printf("  %-32s %.2fx\n", k, base.Speedups[k])
		}
	}
	fmt.Printf("wrote %s\n", *out)
	if man != nil {
		if err := man.Write(*metrics); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "blubench: wrote manifest %s\n", *metrics)
	}
	return nil
}

// recordSchedulers benchmarks one full subframe scheduling decision for
// each of the paper's three schedulers on the same Fig-15 working-point
// cell (16 UEs, 24 hidden terminals, M=2), exercising the steady-state
// allocation-free kernels: scratch reuse, the flat group-distribution
// cache, and the joint-calculator memo.
func recordSchedulers(record func(string, func(int) error) obs.BenchEntry) error {
	const subframes = 100
	cell, err := blu.NewCell(blu.CellConfig{
		Scenario:  blu.NewTestbedScenario(16, 24, 5),
		M:         2,
		Subframes: subframes,
		Seed:      9,
	})
	if err != nil {
		return err
	}
	env := cell.Env()
	calc := blu.NewCalculator(cell.GroundTruth())

	pf, err := blu.NewPF(env)
	if err != nil {
		return err
	}
	aa, err := blu.NewAccessAware(env, calc)
	if err != nil {
		return err
	}
	spec, err := blu.NewSpeculative(env, calc)
	if err != nil {
		return err
	}
	for _, sc := range []struct {
		name string
		s    blu.Scheduler
	}{
		{"Schedule/PF", pf},
		{"Schedule/AA", aa},
		{"Schedule/BLU", spec},
	} {
		sc := sc
		record(sc.name, func(i int) error {
			if sch := sc.s.Schedule(i % subframes); len(sch.RB) == 0 {
				return fmt.Errorf("%s: empty schedule", sc.name)
			}
			return nil
		})
	}
	return nil
}

// recordCodec measures the infer endpoint's JSON wire tax: one op is a
// full codec round trip — encode request, decode request, encode
// response, decode response — on a 16-client payload with a dense pair
// list, the shape bluload drives at the daemon. It runs in the -sched
// fast section so CI tracks it.
func recordCodec(record func(string, func(int) error) obs.BenchEntry) {
	truth := randomTopo(16, 8, 11)
	mw := serve.MeasurementsWire{N: truth.N, P: make([]float64, truth.N)}
	for i := 0; i < truth.N; i++ {
		mw.P[i] = truth.AccessProb(i)
		for j := i + 1; j < truth.N; j++ {
			mw.Pairs = append(mw.Pairs, serve.PairProb{I: i, J: j, P: truth.PairProb(i, j)})
		}
	}
	req := &serve.InferRequest{Measurements: mw, Options: serve.InferOptionsWire{Seed: 11}}
	resp := &serve.InferResponse{
		Topology:     serve.TopologyToWire(truth),
		Violation:    0.004,
		MaxViolation: 0.011,
		Converged:    true,
		Starts:       25,
		Iterations:   900,
	}

	record("Codec/JSON", func(int) error {
		reqBody, err := json.Marshal(req)
		if err != nil {
			return err
		}
		var r serve.InferRequest
		if err := json.Unmarshal(reqBody, &r); err != nil {
			return err
		}
		respBody, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		var p serve.InferResponse
		return json.Unmarshal(respBody, &p)
	})
}

// recordWarmStart measures the §3.7 refresh economics: the same
// drifted instance solved cold (full multi-start fan-out) and solved
// warm from the pre-drift blueprint, where one repair chain probes the
// seed and the fan-out is skipped once it converges. The speedup line
// is the refresh discount the daemon's session infers ride on. The
// drift exceeds the solver tolerance so the repair must actually move —
// a verbatim warm hit would measure only the residual check.
func recordWarmStart(record func(string, func(int) error) obs.BenchEntry, base *obs.BenchReport) error {
	prev := randomTopo(12, 6, 7)
	drifted := &blueprint.Topology{N: prev.N, HTs: append([]blueprint.HiddenTerminal(nil), prev.HTs...)}
	for k := range drifted.HTs {
		drifted.HTs[k].Q += 0.03
	}
	meas := drifted.Measure()
	cold := record("Infer/WarmStartCold", func(int) error {
		_, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: 21})
		return err
	})
	warm := record("Infer/WarmStart", func(int) error {
		_, err := blueprint.Infer(meas, blueprint.InferOptions{Seed: 21, WarmStart: prev})
		return err
	})
	if warm.NsPerOp > 0 {
		base.Speedups["Infer/WarmStart_vs_cold"] = float64(cold.NsPerOp) / float64(warm.NsPerOp)
	}
	return nil
}

// recordObserve measures one /v1/observe round trip — HTTP transport,
// decode, validation, session fold, digest — against an in-process
// daemon: the per-batch ingestion cost a streaming client pays.
func recordObserve(record func(string, func(int) error) obs.BenchEntry) error {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	}()

	req := serve.ObserveRequest{Session: "bench", N: 8}
	r := rng.New(17).Split("observe-bench")
	for o := 0; o < 16; o++ {
		var ob serve.ObservationWire
		for c := 0; c < req.N; c++ {
			if r.Intn(4) > 0 {
				ob.Scheduled = append(ob.Scheduled, c)
				if r.Intn(3) > 0 {
					ob.Accessed = append(ob.Accessed, c)
				}
			}
		}
		req.Observations = append(req.Observations, ob)
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	client := ts.Client()
	return checkBench(record("Serve/Observe", func(int) error {
		resp, err := client.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("observe: status %d", resp.StatusCode)
		}
		return nil
	}))
}

// checkBench guards against a benchmark that silently measured nothing.
func checkBench(e obs.BenchEntry) error {
	if e.NsPerOp <= 0 {
		return fmt.Errorf("%s: implausible %d ns/op", e.Name, e.NsPerOp)
	}
	return nil
}

func inferLabel(n, par int) string {
	if par == 0 {
		return fmt.Sprintf("Infer/N=%d/P=max", n)
	}
	return fmt.Sprintf("Infer/N=%d/P=%d", n, par)
}

// randomTopo mirrors the bench_test.go generator so blubench measures
// the same instances the `go test -bench` suite does.
func randomTopo(n, h int, seed uint64) *blueprint.Topology {
	r := rng.New(seed)
	topo := &blueprint.Topology{N: n}
	for k := 0; k < h; k++ {
		var set blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.25) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{
			Q:       0.1 + 0.4*r.Float64(),
			Clients: set,
		})
	}
	return topo.Normalize()
}
