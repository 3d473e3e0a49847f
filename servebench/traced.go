package main

import (
	"context"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Per-layer run sizes (fixed, so their cost does not grow with -seconds).
const (
	snapshotReps   = 5
	relayPairs     = 200
	exchangeRounds = 5
)

// traced is the per-layer run: an untraced and a traced open-loop
// phase at the workload's rate, then the in-process replay of the
// traced requests, the layer sweep, and the persist and fleet layer
// measurements.
func (b *bench) traced(ctx context.Context) error {
	var err error
	if b.in, err = genInputs(b.p.Name, b.seed); err != nil {
		return err
	}
	b.in.keepBodies = true
	if _, err := b.setup(ctx, 1); err != nil {
		return err
	}
	defer b.teardown()
	streams := b.in.streams(b.p.Name, b.p.Conns)
	n := int(b.p.Rate * b.secs(traceShare).Seconds())
	untraced := openLoop(ctx, b.d, b.clients, streams, b.p.Rate, n, &b.ids)
	before, err := fetchCounters(ctx, http.DefaultClient, b.d.base)
	if err != nil {
		return err
	}
	traced := openLoop(ctx, b.d, b.clients, streams, b.p.Rate, n, &b.ids)
	after, err := fetchCounters(ctx, http.DefaultClient, b.d.base)
	if err != nil {
		return err
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	b.tally(untraced)
	b.tally(traced)
	if b.rep.Failed > 0 {
		return b.teardown()
	}

	// Root spans: each traced request's HTTP round trip.
	var roots []span
	for _, o := range traced {
		roots = append(roots, span{Name: "http" + kindPath[o.req.kind], Req: o.id, ID: o.id, Start: o.t.sent, End: o.t.done})
	}
	rp, err := newReplayer(filepath.Join(b.runDir, "replay-wal"))
	if err != nil {
		return err
	}
	defer rp.close()
	rp.nextID = b.ids // child span ids follow the request ids
	// Mirror the session state the traced requests start from, then
	// replay them with spans. Fleet sessions also take warm seeds from
	// the border exchange, which the mirror cannot see, so only refresh
	// compares session reads.
	for _, o := range append(append([]*outcome(nil), b.pre...), untraced...) {
		if o.req.sess >= 0 {
			if err := rp.replay(o, 0, false); err != nil {
				return err
			}
		}
	}
	rp.record = true
	var checkErr error
	for _, o := range traced {
		if err := rp.replay(o, o.id, b.p.Name == "refresh"); err != nil && checkErr == nil {
			checkErr = err
		}
	}
	if checkErr == nil && b.p.Name == "refresh" {
		all := append(append(append([]*outcome(nil), b.pre...), untraced...), traced...)
		checkErr = checkRefresh(all, 0, counters{}, after)
	}
	if err := layerSweep(rp, b.p.Name, b.in, b.seed); err != nil {
		return err
	}
	rp.record = false
	snaps, err := snapshotTimes(filepath.Join(b.runDir, "snapshot"), rp, snapshotReps)
	if err != nil {
		return err
	}
	if err := b.teardown(); err != nil {
		return err
	}
	fl, err := measureFleetLayers(ctx, b.seed, relayPairs, exchangeRounds)
	if err != nil {
		return err
	}

	b.layerMetrics(roots, rp.spans, before, after)
	var latU, latT, late []float64
	for i := range untraced {
		latU = append(latU, ms(untraced[i].t.latency()))
		latT = append(latT, ms(traced[i].t.latency()))
		late = append(late, ms(untraced[i].t.lateness()))
	}
	b.set("bench.gen_late_p99_ms", percentile(late, 0.99))
	b.set("bench.trace_overhead_ms", median(latT)-median(latU))
	b.set("bench.residual_ms", median(latU)-b.layerP50Sum(roots, rp.spans))
	b.set("bench.traced_requests", float64(len(traced)))
	b.set("persist.snapshot_ms", median(snaps))
	b.set("persist.snapshot_sessions", float64(len(rp.windows)))
	b.set("fleet.relay_overhead_ms", median(fl.relayRouted)-median(fl.relayDirect))
	b.set("fleet.ring_owner_ns", median(fl.ringOwnerNs))
	b.set("fleet.exchange_round_ms", median(fl.exchangeMs))
	if err := traceFile(filepath.Join(b.runDir, "..", "results", fmt.Sprintf("%s-seed%d-spans.jsonl", b.p.Name, b.seed)),
		append(roots, rp.spans...)); err != nil {
		return err
	}
	if checkErr != nil {
		return &checkError{checkErr}
	}
	return nil
}

// spanMetrics maps span names to the per-layer metric of their p50 and
// the metric's scale from nanoseconds.
var spanMetrics = []struct {
	span, metric string
	scale        float64
}{
	{"serve.decode", "serve.decode_us", 1e3},
	{"serve.encode", "serve.encode_us", 1e3},
	{"serve.to_measurements", "serve.to_measurements_us", 1e3},
	{"access.fold", "access.fold_us", 1e3},
	{"access.measurements", "access.measurements_us", 1e3},
	{"blueprint.cold_infer.N8", "blueprint.cold_infer_ms.N8", 1e6},
	{"blueprint.cold_infer.N16", "blueprint.cold_infer_ms.N16", 1e6},
	{"blueprint.cold_infer.N24", "blueprint.cold_infer_ms.N24", 1e6},
	{"blueprint.warm_infer", "blueprint.warm_infer_ms", 1e6},
	{"joint.build", "joint.build_us", 1e3},
	{"joint.prob", "joint.prob_us", 1e3},
	{"sched.build.blu", "sched.build_us.blu", 1e3},
	{"sched.schedule.blu", "sched.schedule_us.blu", 1e3},
	{"sched.schedule.aa", "sched.schedule_us.aa", 1e3},
	{"sched.schedule.pf", "sched.schedule_us.pf", 1e3},
	{"persist.append", "persist.append_us", 1e3},
	{"persist.sync", "persist.sync_ms", 1e6},
}

// layerMetrics sets the span p50s, serve.self_ms and the counter
// ratios. A span name's p50 comes from the traced requests when the
// workload sends that kind, else from the sweep (negative request ids).
func (b *bench) layerMetrics(roots, spans []span, before, after counters) {
	byName := map[string][2][]float64{} // [traced, sweep] durations in ns
	for _, s := range spans {
		v := byName[s.Name]
		i := 0
		if s.Req < 0 {
			i = 1
		}
		v[i] = append(v[i], float64(s.dur()))
		byName[s.Name] = v
	}
	for _, m := range spanMetrics {
		v := byName[m.span]
		xs := v[0]
		if len(xs) == 0 {
			xs = v[1]
		}
		if len(xs) == 0 {
			continue // never measured: the run reports the metric missing
		}
		b.set(m.metric, median(xs)/m.scale)
	}
	kids := childrenByReq(spans)
	var self []float64
	for _, r := range roots {
		self = append(self, ms(selfTime(r, kids[r.Req])))
	}
	b.set("serve.self_ms", median(self))

	d := func(name string) int64 { return delta(before, after, name) }
	b.set("serve.cache_hit_ratio", ratio(d("serve_cache_hit_total"), d("serve_cache_hit_total")+d("serve_cache_miss_total")))
	b.set("serve.coalesced_ratio", ratio(d("serve_coalesced_total"), d("serve_infer_total")))
	b.set("serve.invalidations_per_write", ratio(d("serve_invalidation_total"), d("serve_observe_total")))
	b.set("serve.queue_rejects", float64(d("serve_queue_reject_total")))
	b.set("blueprint.starts_per_infer", ratio(d("blueprint_starts_total"), d("blueprint_infer_total")))
	b.set("blueprint.iterations_per_infer", ratio(d("blueprint_repair_iterations_total"), d("blueprint_infer_total")))
	b.set("blueprint.warm_hit_ratio", ratio(d("blueprint_warm_hits_total"), d("blueprint_warm_starts_total")))
	b.set("persist.appends_per_sync", ratio(d("persist_wal_appends_total"), d("persist_wal_syncs_total")))
	b.set("fleet.exchange_dedup_ratio", ratio(d("fleet_border_dedup_total"), d("fleet_exchange_received_total")))
}

func childrenByReq(spans []span) map[int64][]span {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Req > 0 {
			kids[s.Req] = append(kids[s.Req], s)
		}
	}
	return kids
}

// layerP50Sum is Σ over layers of the p50, across traced requests, of
// the time each request spent in that layer (serve includes the
// request's self time). lat_p50 minus this sum is the part of the
// end-to-end median the layer spans do not explain.
func (b *bench) layerP50Sum(roots, spans []span) float64 {
	kids := childrenByReq(spans)
	perLayer := map[string][]float64{}
	for _, r := range roots {
		in := map[string]time.Duration{"serve": selfTime(r, kids[r.Req])}
		for _, k := range kids[r.Req] {
			in[layerOf(k.Name)] += k.dur()
		}
		for _, layer := range []string{"serve", "access", "blueprint", "joint", "sched", "persist"} {
			perLayer[layer] = append(perLayer[layer], ms(in[layer]))
		}
	}
	var sum float64
	layers := make([]string, 0, len(perLayer))
	for layer := range perLayer {
		layers = append(layers, layer)
	}
	sort.Strings(layers)
	for _, layer := range layers {
		p := median(perLayer[layer])
		b.set("bench.layer_p50_ms."+strings.ReplaceAll(layer, ".", "_"), p)
		sum += p
	}
	return sum
}
