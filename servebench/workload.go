package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"blu/internal/blueprint"
	"blu/internal/fleet"
	"blu/internal/rng"
	"blu/internal/serve"
)

// kind is a request type the workloads send.
type kind int

const (
	kInfer        kind = iota // inline /v1/infer
	kSessionInfer             // session-keyed /v1/infer
	kObserve
	kJoint
	kSchedule
)

var kindPath = [...]string{"/v1/infer", "/v1/infer", "/v1/observe", "/v1/joint", "/v1/schedule"}

// request is one generated request plus what the checks and the traced
// replay need to know about it.
type request struct {
	kind  kind
	query string // "?cell=<id>" when routed through a fleet router
	body  []byte
	sess  int                 // session index, -1 for stateless requests
	truth *blueprint.Topology // ground truth of an inline infer
	n     int                 // client count
	m     int                 // schedule: UEs per resource block
	// discard marks a one-off request no check reads: its bodies are
	// dropped once answered, keeping the generator's heap small.
	discard bool
}

// params are a workload's fixed settings. They are recorded in every
// result as part of its provenance.
type params struct {
	Name string `json:"name"`
	// Rate is the open-loop phase's fixed request rate, per second.
	Rate float64 `json:"open_loop_rps"`
	// Conns is the HTTP connection count of both phases.
	Conns int `json:"connections"`
	// Sessions is the number of observe sessions (fleet: cells).
	Sessions int `json:"sessions,omitempty"`
	// Shards is the fleet's shard count.
	Shards int `json:"shards,omitempty"`
	// DirectorySeed derives the fleet's cell directory; it stays fixed
	// so that every workload seed runs over the same cells.
	DirectorySeed uint64 `json:"directory_seed,omitempty"`
	// SnapshotCycles is how many periodic snapshots the server takes
	// within the timed phases; SnapshotInterval follows from it.
	SnapshotCycles   int           `json:"snapshot_cycles,omitempty"`
	SnapshotInterval time.Duration `json:"snapshot_interval_ns,omitempty"`
	// Durable selects a -state directory (group-commit WAL).
	Durable bool `json:"durable"`
}

// Solve-workload shape: inline infers at three problem sizes, joint
// queries and schedules at the Fig-15 working point.
var solveNs = [3]int{8, 16, 24}

const (
	truthPerN       = 512 // ground-truth topologies per problem size
	statelessPool   = 96  // distinct joint and schedule bodies
	fig15UEs        = 16
	fig15RBs        = 25
	fig15M          = 2
	obsPerBatch     = 16 // subframe outcomes per /v1/observe batch
	batchesPerSess  = 8  // observe batches cycled per session
	refreshSessions = 64
	fleetCells      = 12
	fleetShards     = 3
	accuracyPerSize = 16 // inline infers per size behind blueprint_accuracy
)

var flavors = [3]string{"blu", "aa", "pf"}

// randTopo draws a hidden-terminal topology over n clients: up to one
// terminal per four clients, each blocking two to four clients.
func randTopo(r *rng.Source, n int) *blueprint.Topology {
	topo := &blueprint.Topology{N: n}
	hts := 1 + r.Intn(max(1, n/4))
	for h := 0; h < hts; h++ {
		size := min(n, 2+r.Intn(3))
		var set blueprint.ClientSet
		for set.Count() < size {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: 0.2 + 0.4*r.Float64(), Clients: set})
	}
	return topo
}

// solveTopo draws the solve workload's instances: n/2 hidden
// terminals, each blocking every client with probability 1/4 (the
// repo's Infer/N=* Go benchmarks use the same shape, denser), so a
// solve costs milliseconds at N=24 with a light tail.
func solveTopo(r *rng.Source, n int) *blueprint.Topology {
	topo := &blueprint.Topology{N: n}
	for h := 0; h < max(1, n/2); h++ {
		var set blueprint.ClientSet
		for i := 0; i < n; i++ {
			if r.Bool(0.25) {
				set = set.Add(i)
			}
		}
		if set.Empty() {
			set = set.Add(r.Intn(n))
		}
		topo.HTs = append(topo.HTs, blueprint.HiddenTerminal{Q: 0.1 + 0.4*r.Float64(), Clients: set})
	}
	return topo.Normalize()
}

// measurementsOf renders a topology's exact access distribution, so
// an infer built from it is a well-posed instance with a known answer.
func measurementsOf(topo *blueprint.Topology) serve.MeasurementsWire {
	mw := serve.MeasurementsWire{N: topo.N, P: make([]float64, topo.N)}
	for i := 0; i < topo.N; i++ {
		mw.P[i] = topo.AccessProb(i)
		for j := i + 1; j < topo.N; j++ {
			mw.Pairs = append(mw.Pairs, serve.PairProb{I: i, J: j, P: topo.PairProb(i, j)})
		}
	}
	return mw
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain wire structs are marshalled
	}
	return b
}

// inlineInfer builds an inline infer over truth from its pre-rendered
// measurements JSON. Every seed gives a distinct request digest, so no
// two such requests share a cache slot.
func inlineInfer(truth *blueprint.Topology, mwJSON []byte, seed uint64, query string) *request {
	body := make([]byte, 0, len(mwJSON)+48)
	body = append(body, `{"measurements":`...)
	body = append(body, mwJSON...)
	body = append(body, `,"options":{"seed":`...)
	body = strconv.AppendUint(body, seed, 10)
	body = append(body, "}}"...)
	return &request{kind: kInfer, query: query, body: body, sess: -1, truth: truth, n: truth.N}
}

func jointRequest(r *rng.Source, topo *blueprint.Topology, query string) *request {
	clear := []int{r.Intn(topo.N)}
	blocked := []int{}
	if b := r.Intn(topo.N); b != clear[0] {
		blocked = append(blocked, b)
	}
	return &request{
		kind:  kJoint,
		query: query,
		body:  mustJSON(serve.JointRequest{Topology: serve.TopologyToWire(topo), Clear: clear, Blocked: blocked}),
		sess:  -1,
		n:     topo.N,
	}
}

func scheduleRequest(r *rng.Source, topo *blueprint.Topology, flavor, query string) *request {
	rates := make([][]float64, topo.N)
	for i := range rates {
		rates[i] = []float64{(1 + 9*r.Float64()) * 1e6}
	}
	return &request{
		kind:  kSchedule,
		query: query,
		body: mustJSON(serve.ScheduleRequest{
			Topology:  serve.TopologyToWire(topo),
			NumRB:     fig15RBs,
			M:         fig15M,
			Scheduler: flavor,
			Rates:     rates,
		}),
		sess: -1,
		n:    topo.N,
		m:    fig15M,
	}
}

// inputs is everything a workload sends, generated from the seed alone
// before any server starts.
type inputs struct {
	// Solve: ground truths per size, and the stateless pools.
	truth    [len(solveNs)][]*blueprint.Topology
	truthMW  [len(solveNs)][][]byte // measurements JSON of each truth
	joints   []*request
	schedule []*request
	// Refresh and fleet: one session per entry.
	sessions []*sessionSpec
	// accuracy are the inline infers behind blueprint_accuracy, sent
	// after the timed phases: a set fixed across workload seeds, with
	// solver seeds outside the range the timed phases use.
	accuracy []*request
	// dir is the fleet's cell directory (fleet workload).
	dir fleet.Directory
	// keepBodies keeps every answered body (traced runs).
	keepBodies bool
}

// sessionSpec is one observe session: the observe batches it cycles
// (simulated over a ground-truth topology), its session-keyed infer,
// and (fleet) the joint and schedule requests routed to its cell.
type sessionSpec struct {
	name    string
	batches []*request
	infer   *request
	joint   *request
	sched   [3]*request
}

// observeBatch simulates subframes over truth: each client is scheduled
// with probability 3/4, each hidden terminal is active with its q, and
// a scheduled client accesses the channel unless an active terminal
// blocks it.
func observeBatch(r *rng.Source, sess string, truth *blueprint.Topology, seal bool, query string) *request {
	req := serve.ObserveRequest{Session: sess, N: truth.N, Seal: seal}
	for o := 0; o < obsPerBatch; o++ {
		var blocked blueprint.ClientSet
		for _, ht := range truth.HTs {
			if r.Float64() < ht.Q {
				blocked = blocked.Union(ht.Clients)
			}
		}
		var ob serve.ObservationWire
		for c := 0; c < truth.N; c++ {
			if r.Intn(4) == 0 {
				continue
			}
			ob.Scheduled = append(ob.Scheduled, c)
			if !blocked.Has(c) {
				ob.Accessed = append(ob.Accessed, c)
			}
		}
		req.Observations = append(req.Observations, ob)
	}
	return &request{kind: kObserve, query: query, body: mustJSON(req), n: truth.N}
}

// newSession builds one session's request set.
func newSession(r *rng.Source, idx int, name string, truth *blueprint.Topology, query string, stateless bool) *sessionSpec {
	s := &sessionSpec{name: name}
	for b := 0; b < batchesPerSess; b++ {
		req := observeBatch(r, name, truth, b%2 == 1, query)
		req.sess = idx
		s.batches = append(s.batches, req)
	}
	s.infer = &request{
		kind:  kSessionInfer,
		query: query,
		body:  mustJSON(serve.InferRequest{Session: name, Options: serve.InferOptionsWire{Seed: 1 + uint64(idx)}}),
		sess:  idx,
		n:     truth.N,
	}
	if stateless {
		s.joint = jointRequest(r, truth, query)
		for f, flavor := range flavors {
			s.sched[f] = scheduleRequest(r, truth, flavor, query)
		}
	}
	return s
}

// genInputs derives every workload input from the seed. The solve pools
// and the accuracy set are built for every workload, so the traced
// run's layer sweep can use them whatever the workload.
func genInputs(workload string, seed uint64) (*inputs, error) {
	root := rng.New(seed).Split("servebench")
	in := &inputs{}
	for k, n := range solveNs {
		r := root.SplitIndex("truth", n)
		for i := 0; i < truthPerN; i++ {
			t := solveTopo(r, n)
			in.truth[k] = append(in.truth[k], t)
			in.truthMW[k] = append(in.truthMW[k], mustJSON(measurementsOf(t)))
		}
	}
	rj, rs := root.Split("joint"), root.Split("schedule")
	for i := 0; i < statelessPool; i++ {
		in.joints = append(in.joints, jointRequest(rj, solveTopo(rj, fig15UEs), ""))
		in.schedule = append(in.schedule, scheduleRequest(rs, solveTopo(rs, fig15UEs), flavors[i%3], ""))
	}

	query := ""
	switch workload {
	case "refresh":
		r := root.Split("sessions")
		for i := 0; i < refreshSessions; i++ {
			// Client counts cycle 6..12 on every seed; only the
			// topologies and traffic vary with it.
			truth := randTopo(r, 6+i%7)
			in.sessions = append(in.sessions, newSession(r, i, fmt.Sprintf("refresh-%02d", i), truth, "", false))
		}
	case "fleet":
		dir, err := fleet.DefaultDirectory(fleetCells, fleetDirectorySeed)
		if err != nil {
			return nil, err
		}
		in.dir = dir
		r := root.Split("cells")
		for i := range dir.Cells {
			cell := &dir.Cells[i]
			n := len(cell.Members)
			if n < 2 || n > blueprint.MaxClients {
				return nil, fmt.Errorf("cell %s has %d members", cell.ID, n)
			}
			q := "?cell=" + cell.ID
			in.sessions = append(in.sessions, newSession(r, i, fleet.SessionName(cell.ID), randTopo(r, n), q, true))
		}
		// Fleet accuracy infers are routed to the first cell's shard.
		query = "?cell=" + dir.Cells[0].ID
	}

	// The accuracy set does not depend on the workload seed: the figure
	// repeats exactly on every run, so a solver change that loses
	// accuracy moves it by exactly the loss.
	ra := rng.New(accuracySeed).Split("servebench-accuracy")
	for k, n := range solveNs {
		for i := 0; i < accuracyPerSize; i++ {
			t := solveTopo(ra, n)
			in.accuracy = append(in.accuracy, inlineInfer(t, mustJSON(measurementsOf(t)), 1<<40+uint64(k*accuracyPerSize+i), query))
		}
	}
	return in, nil
}

// accuracySeed draws the fixed accuracy set.
const accuracySeed = 20171212

// fleetDirectorySeed fixes the fleet's cell layout; the workload seed
// varies only the traffic.
const fleetDirectorySeed = 1

// checkEvery spaces the solve rounds whose infer bodies are kept.
const checkEvery = 25

// solveItem is the solve workload's i-th request: six inline infers
// (sizes cycling 8, 16, 24) per two joints and two schedules. The infer
// seed is the request index, so every digest is unique.
func (in *inputs) solveItem(i int) *request {
	round, slot := i/10, i%10
	switch {
	case slot < 6:
		k := (round*6 + slot) % len(solveNs)
		t := (round*2 + slot/3) % truthPerN
		req := inlineInfer(in.truth[k][t], in.truthMW[k][t], 1+uint64(i), "")
		// One round in checkEvery keeps its bodies for the solve check;
		// a traced run replays every request and keeps them all.
		req.discard = !in.keepBodies && round%checkEvery != 0
		return req
	case slot < 8:
		return in.joints[(round*2+slot-6)%len(in.joints)]
	default:
		return in.schedule[(round*2+slot-8)%len(in.schedule)]
	}
}

// sessionOp is op k of session s. Refresh repeats a write followed by
// two reads; fleet repeats write, read, read, joint, write, read, read,
// schedule on the session's cell.
func (in *inputs) sessionOp(s *sessionSpec, k int, fleetMix bool) *request {
	period, writesPerPeriod := 3, 1
	if fleetMix {
		period, writesPerPeriod = 8, 2
	}
	round, slot := k/period, k%period
	switch {
	case slot%4 == 0:
		// Batch 0 went out in the pre-seed; the stream continues after it.
		w := round*writesPerPeriod + slot/4
		return s.batches[(w+1)%len(s.batches)]
	case slot == 3:
		return s.joint
	case slot == 7:
		return s.sched[round%len(flavors)]
	default:
		return s.infer
	}
}

// stream is one connection's deterministic request sequence. Sessions
// are pinned to connections, so each session's order depends only on
// the seed, and the stream continues across phases.
type stream func() *request

func (in *inputs) streams(workload string, conns int) []stream {
	out := make([]stream, conns)
	for c := range out {
		c := c
		j := 0
		if workload == "solve" {
			out[c] = func() *request {
				r := in.solveItem(j*conns + c)
				j++
				return r
			}
			continue
		}
		var owned []*sessionSpec
		for i, s := range in.sessions {
			if i%conns == c {
				owned = append(owned, s)
			}
		}
		fleetMix := workload == "fleet"
		out[c] = func() *request {
			r := in.sessionOp(owned[j%len(owned)], j/len(owned), fleetMix)
			j++
			return r
		}
	}
	return out
}
