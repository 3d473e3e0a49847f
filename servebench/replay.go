package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"blu/internal/access"
	"blu/internal/blueprint"
	"blu/internal/joint"
	"blu/internal/lte"
	"blu/internal/persist"
	"blu/internal/sched"
	"blu/internal/serve"
)

// replayer re-runs, in this process, the layer calls the server made
// for a request: the same public functions on the same inputs. Traced
// runs record a span around each call; checks compare the re-encoded
// answer with the body the server sent.
//
// Session state is mirrored: every observe batch folds into a local
// access.Window, and each cache-miss read's answer becomes the warm
// seed of the session's next solve, exactly as the server keeps it.
type replayer struct {
	windows map[int]*mirror
	store   *persist.Store // WAL appends of replayed observes
	pending int            // appends since the last Flush
	spans   []span
	nextID  int64
	// record enables spans; off while only mirroring state.
	record bool
}

type mirror struct {
	win  *access.Window
	warm *blueprint.Topology
}

// appendsPerSync is how many replayed WAL appends share one Flush,
// close to the group-commit batch a durable server reaches under load.
const appendsPerSync = 8

// serverWindowEpochs mirrors blud's default -window.
const serverWindowEpochs = 64

func newReplayer(walDir string) (*replayer, error) {
	if err := os.MkdirAll(walDir, 0o755); err != nil {
		return nil, err
	}
	// The syncer stays idle (hour-long interval); replay flushes
	// explicitly so each group commit is one measured span.
	store, _, err := persist.Open(walDir, persist.Options{SyncInterval: time.Hour, MaxPending: 1 << 20},
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		return nil, fmt.Errorf("replay WAL: %w", err)
	}
	return &replayer{windows: map[int]*mirror{}, store: store}, nil
}

func (rp *replayer) close() error { return rp.store.Close() }

// timed runs fn, recording a span named name under parent.
func (rp *replayer) timed(name string, req, parent int64, fn func()) {
	if !rp.record {
		fn()
		return
	}
	start := time.Now()
	fn()
	end := time.Now()
	rp.nextID++
	rp.spans = append(rp.spans, span{Name: name, Req: req, ID: rp.nextID, Parent: parent, Start: start, End: end})
}

// replay re-runs one request. parent is the id of the request's root
// span (0 when untraced). When the outcome carries the server's body,
// a re-encoded answer that differs from it is returned as an error
// (session reads only when compareSession is set).
func (rp *replayer) replay(o *outcome, parent int64, compareSession bool) error {
	var err error
	req := o.req
	switch req.kind {
	case kInfer:
		var ir serve.InferRequest
		rp.timed("serve.decode", o.id, parent, func() { err = json.Unmarshal(req.body, &ir) })
		if err != nil {
			return err
		}
		var m *blueprint.Measurements
		rp.timed("serve.to_measurements", o.id, parent, func() { m, err = ir.Measurements.ToMeasurements() })
		if err != nil {
			return err
		}
		opts := ir.Options.ToInferOptions()
		opts.Parallelism = 1
		var res *blueprint.InferResult
		rp.timed(fmt.Sprintf("blueprint.cold_infer.N%d", m.N), o.id, parent, func() {
			res, err = blueprint.InferContext(context.Background(), m, opts)
		})
		if err != nil {
			return err
		}
		return rp.encodeCompare(o, parent, inferResponse(res))
	case kSessionInfer:
		mr := rp.windows[req.sess]
		if mr == nil {
			return fmt.Errorf("session %d read before its first write", req.sess)
		}
		var ir serve.InferRequest
		rp.timed("serve.decode", o.id, parent, func() { err = json.Unmarshal(req.body, &ir) })
		if err != nil {
			return err
		}
		if !rp.record {
			// Mirroring only: a miss's answer is the next warm seed.
			if o.cache == "miss" {
				mr.warm, err = bodyTopology(o.body)
			}
			return err
		}
		var m *blueprint.Measurements
		rp.timed("access.measurements", o.id, parent, func() { m = mr.win.Measurements() })
		if o.body != nil && o.cache == "hit" {
			return nil // answered from the cache: no solve, no encode
		}
		opts := ir.Options.ToInferOptions()
		opts.Parallelism = 1
		opts.WarmStart = mr.warm
		var res *blueprint.InferResult
		rp.timed("blueprint.warm_infer", o.id, parent, func() {
			res, err = blueprint.InferContext(context.Background(), m, opts)
		})
		if err != nil {
			return err
		}
		resp := inferResponse(res)
		mr.warm = res.Topology
		if o.body != nil {
			// The server's own answer is the session's next warm seed.
			if warm, werr := bodyTopology(o.body); werr == nil {
				mr.warm = warm
			} else {
				return werr
			}
		}
		if !compareSession {
			return rp.encodeCompare(&outcome{id: o.id}, parent, resp)
		}
		return rp.encodeCompare(o, parent, resp)
	case kObserve:
		var or serve.ObserveRequest
		rp.timed("serve.decode", o.id, parent, func() { err = json.Unmarshal(req.body, &or) })
		if err != nil {
			return err
		}
		mr := rp.windows[req.sess]
		if mr == nil {
			mr = &mirror{win: access.NewWindow(or.N, serverWindowEpochs)}
			rp.windows[req.sess] = mr
		}
		canon := serve.ObserveRequest{Session: or.Session, N: or.N, Seal: or.Seal}
		accessed := make([]blueprint.ClientSet, len(or.Observations))
		for i, ob := range or.Observations {
			accessed[i] = blueprint.NewClientSet(ob.Accessed...)
			canon.Observations = append(canon.Observations, serve.ObservationWire{
				Scheduled: blueprint.NewClientSet(ob.Scheduled...).Members(),
				Accessed:  accessed[i].Members(),
			})
		}
		if rp.record {
			payload, perr := serve.EncodeObserveRequest(&canon)
			if perr != nil {
				return perr
			}
			rp.timed("persist.append", o.id, parent, func() { _, err = rp.store.Append(payload) })
			if err != nil {
				return err
			}
			if rp.pending++; rp.pending == appendsPerSync {
				rp.pending = 0
				rp.timed("persist.sync", o.id, parent, func() { err = rp.store.Flush() })
				if err != nil {
					return err
				}
			}
		}
		rp.timed("access.fold", o.id, parent, func() {
			for i, ob := range or.Observations {
				mr.win.Fold(ob.Scheduled, accessed[i])
			}
			if or.Seal {
				mr.win.Advance()
			}
		})
		rp.timed("access.measurements", o.id, parent, func() { mr.win.Measurements() })
		if o.body == nil || !rp.record {
			return nil
		}
		var resp serve.ObserveResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return err
		}
		return rp.encodeCompare(o, parent, resp)
	case kJoint:
		var jr serve.JointRequest
		rp.timed("serve.decode", o.id, parent, func() { err = json.Unmarshal(req.body, &jr) })
		if err != nil {
			return err
		}
		topo, terr := jr.Topology.ToTopology()
		if terr != nil {
			return terr
		}
		var calc *joint.Calculator
		rp.timed("joint.build", o.id, parent, func() { calc = joint.NewCalculator(topo) })
		var resp serve.JointResponse
		rp.timed("joint.prob", o.id, parent, func() {
			resp.Prob = calc.Prob(blueprint.NewClientSet(jr.Clear...), blueprint.NewClientSet(jr.Blocked...))
			resp.Marginals = make([]float64, topo.N)
			for i := range resp.Marginals {
				resp.Marginals[i] = calc.Marginal(i)
			}
		})
		return rp.encodeCompare(o, parent, resp)
	case kSchedule:
		var sr serve.ScheduleRequest
		rp.timed("serve.decode", o.id, parent, func() { err = json.Unmarshal(req.body, &sr) })
		if err != nil {
			return err
		}
		topo, terr := sr.Topology.ToTopology()
		if terr != nil {
			return terr
		}
		env := sched.Env{NumUE: topo.N, NumRB: sr.NumRB, M: sr.M, K: sr.K, Alpha: sr.Alpha,
			Rate: func(ue, b int) float64 {
				if rr := sr.Rates[ue]; len(rr) > 1 {
					return rr[b]
				}
				return sr.Rates[ue][0]
			}}
		var s interface{ Schedule(int) *lte.Schedule }
		rp.timed("sched.build."+sr.Scheduler, o.id, parent, func() {
			switch sr.Scheduler {
			case "blu":
				s, err = sched.NewSpeculative(env, joint.NewCalculator(topo))
			case "aa":
				s, err = sched.NewAccessAware(env, joint.NewCalculator(topo))
			default:
				s, err = sched.NewPF(env)
			}
		})
		if err != nil {
			return err
		}
		var sc *lte.Schedule
		rp.timed("sched.schedule."+sr.Scheduler, o.id, parent, func() { sc = s.Schedule(0) })
		resp := serve.ScheduleResponse{RB: make([][]int, len(sc.RB)), DistinctUEs: sc.DistinctUEs(), Scheduler: sr.Scheduler}
		for b, ues := range sc.RB {
			resp.RB[b] = ues
			if ues == nil {
				resp.RB[b] = []int{}
			}
		}
		return rp.encodeCompare(o, parent, resp)
	}
	return fmt.Errorf("unknown request kind %d", req.kind)
}

// encodeCompare encodes the replayed answer and, when the server's body
// is known, requires it byte for byte.
func (rp *replayer) encodeCompare(o *outcome, parent int64, resp any) error {
	var body []byte
	var err error
	rp.timed("serve.encode", o.id, parent, func() { body, err = json.Marshal(resp) })
	if err != nil {
		return err
	}
	if o.body != nil && !bytes.Equal(body, o.body) {
		return fmt.Errorf("%s answer differs from a fresh in-process run:\n server: %s\n  fresh: %s",
			kindPath[o.req.kind], o.body, body)
	}
	return nil
}

func inferResponse(res *blueprint.InferResult) serve.InferResponse {
	return serve.InferResponse{
		Topology:     serve.TopologyToWire(res.Topology),
		Violation:    res.Violation,
		MaxViolation: res.MaxViolation,
		Converged:    res.Converged,
		Starts:       res.Starts,
		Iterations:   res.Iterations,
	}
}

// bodyTopology decodes the blueprint of an infer response.
func bodyTopology(body []byte) (*blueprint.Topology, error) {
	var resp serve.InferResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("infer response: %w", err)
	}
	return resp.Topology.ToTopology()
}
