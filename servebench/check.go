package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"blu/internal/blueprint"
	"blu/internal/serve"
)

// The output checks run after the timed phases, so they cost those
// phases nothing. Each returns the first violation it finds.

// samplesPerSize is how many timed inline infers per problem size the
// solve check re-solves in process.
const samplesPerSize = 4

// checkSolve re-solves a sample of the timed inline infers in process
// and requires each server body byte for byte ("a cached answer equals
// a fresh solve"), and checks every schedule's grants are well formed.
func checkSolve(outcomes []*outcome, rp *replayer) error {
	taken := map[int]int{}
	for _, o := range outcomes {
		switch o.req.kind {
		case kInfer:
			if o.body == nil || taken[o.req.n] >= samplesPerSize {
				continue
			}
			taken[o.req.n]++
			if err := rp.replay(o, 0, true); err != nil {
				return err
			}
		case kSchedule:
			if err := checkGrants(o); err != nil {
				return err
			}
		}
	}
	for _, n := range solveNs {
		if taken[n] == 0 {
			return fmt.Errorf("no N=%d infer was answered", n)
		}
	}
	return nil
}

// blueOverFactor is BLU's default over-scheduling factor f: its
// speculative scheduler grants up to f·M UEs per resource block.
const blueOverFactor = 2

// checkGrants requires a well-formed subframe: one entry per resource
// block, distinct in-range UEs on each, at most M of them (f·M for
// BLU's speculative over-scheduling).
func checkGrants(o *outcome) error {
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(o.body, &resp); err != nil {
		return fmt.Errorf("schedule response: %w", err)
	}
	if len(resp.RB) != fig15RBs {
		return fmt.Errorf("schedule: %d resource blocks, want %d", len(resp.RB), fig15RBs)
	}
	limit := o.req.m
	if resp.Scheduler == "blu" {
		limit *= blueOverFactor
	}
	for b, ues := range resp.RB {
		if len(ues) > limit {
			return fmt.Errorf("schedule %s: RB %d grants %d UEs, limit %d", resp.Scheduler, b, len(ues), limit)
		}
		seen := map[int]bool{}
		for _, ue := range ues {
			if ue < 0 || ue >= o.req.n || seen[ue] {
				return fmt.Errorf("schedule: RB %d grants %v for %d UEs", b, ues, o.req.n)
			}
			seen[ue] = true
		}
	}
	return nil
}

// checkRefresh walks each session's requests in order and requires
// every cache-hit read to equal, byte for byte, the miss that minted
// it: the miss made under the same measurement digest (from the last
// observe answer) and the same warm seed (the last miss's blueprint).
// A miss repeating an earlier key must also equal the earlier answer.
// It then requires the server's observe and WAL-append counters to
// have moved by exactly the writes acknowledged after request id
// countFrom (the pre-seed's last id).
func checkRefresh(outcomes []*outcome, countFrom int64, before, after counters) error {
	sorted := append([]*outcome(nil), outcomes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].id < sorted[j].id })
	type state struct {
		digest, warm string
		minted       map[string][]byte
	}
	sessions := map[int]*state{}
	writes := int64(0)
	for _, o := range sorted {
		st := sessions[o.req.sess]
		if st == nil {
			st = &state{minted: map[string][]byte{}}
			sessions[o.req.sess] = st
		}
		switch o.req.kind {
		case kObserve:
			var resp serve.ObserveResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return fmt.Errorf("observe response: %w", err)
			}
			st.digest = resp.Digest
			if o.id > countFrom {
				writes++
			}
		case kSessionInfer:
			key := st.digest + "|" + st.warm
			prev, known := st.minted[key]
			switch o.cache {
			case "hit":
				if !known {
					return fmt.Errorf("session %d: cache hit with no miss under digest %s", o.req.sess, st.digest)
				}
				if !bytes.Equal(prev, o.body) {
					return fmt.Errorf("session %d: cache hit differs from its miss:\n miss: %s\n  hit: %s", o.req.sess, prev, o.body)
				}
			case "miss":
				if known && !bytes.Equal(prev, o.body) {
					return fmt.Errorf("session %d: two solves of one key differ:\n %s\n %s", o.req.sess, prev, o.body)
				}
				st.minted[key] = o.body
				var resp serve.InferResponse
				if err := json.Unmarshal(o.body, &resp); err != nil {
					return fmt.Errorf("infer response: %w", err)
				}
				warm, err := json.Marshal(resp.Topology)
				if err != nil {
					return err
				}
				st.warm = string(warm)
			default:
				return fmt.Errorf("session read without an X-Blu-Cache verdict (%q)", o.cache)
			}
		}
	}
	for _, name := range []string{"serve_observe_total", "persist_wal_appends_total"} {
		if got := delta(before, after, name); got != writes {
			return fmt.Errorf("%s moved by %d, %d writes were acknowledged", name, got, writes)
		}
	}
	return nil
}

// checkFleetStateless sends each distinct routed joint and schedule
// request to a fresh memory-only blud and requires the routed answer
// byte for byte.
func checkFleetStateless(ctx context.Context, outcomes []*outcome, binDir, runDir string, nproc int) error {
	first := map[*request]*outcome{}
	var order []*request
	for _, o := range outcomes {
		if (o.req.kind == kJoint || o.req.kind == kSchedule) && first[o.req] == nil {
			first[o.req] = o
			order = append(order, o.req)
		}
	}
	if len(order) == 0 {
		return fmt.Errorf("no routed joint or schedule request was answered")
	}
	pr, err := startProc("fleet-check-blud", filepath.Join(binDir, "blud"), []string{"-addr", "127.0.0.1:0"}, nproc, filepath.Join(runDir, "logs"))
	if err != nil {
		return err
	}
	d := &deployment{procs: []*proc{pr}}
	defer d.stop()
	addr, _, err := pr.waitLine("blud: listening on ", 60*time.Second)
	if err != nil {
		return err
	}
	base := "http://" + addr
	for _, req := range order {
		status, _, body, err := post(ctx, http.DefaultClient, base+kindPath[req.kind], req.body)
		if err != nil || status != http.StatusOK {
			return fmt.Errorf("reference blud %s: status %d %v", kindPath[req.kind], status, err)
		}
		if routed := first[req].body; !bytes.Equal(routed, body) {
			return fmt.Errorf("routed %s differs from a memory-only blud:\n routed: %s\n direct: %s", kindPath[req.kind], routed, body)
		}
		if req.kind == kSchedule {
			if err := checkGrants(first[req]); err != nil {
				return err
			}
		}
	}
	return d.stop()
}

// accuracy sends the fixed accuracy infers, requires each answer to
// equal a fresh in-process solve, and returns the mean
// blueprint.Accuracy against the ground truth.
func accuracy(ctx context.Context, base string, in *inputs, rp *replayer) (float64, error) {
	var sum float64
	for _, req := range in.accuracy {
		o := &outcome{req: req}
		send(ctx, http.DefaultClient, base, o)
		if !o.ok() {
			return 0, fmt.Errorf("accuracy infer: status %d %s %v", o.status, o.body, o.err)
		}
		if err := rp.replay(o, 0, true); err != nil {
			return 0, err
		}
		topo, err := bodyTopology(o.body)
		if err != nil {
			return 0, err
		}
		a := blueprint.Accuracy(req.truth, topo)
		if math.IsNaN(a) {
			return 0, fmt.Errorf("accuracy undefined")
		}
		sum += a
	}
	return sum / float64(len(in.accuracy)), nil
}
