package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"blu/internal/access"
	"blu/internal/fleet"
	"blu/internal/persist"
	"blu/internal/serve"
)

// The traced run's layer numbers come from the benchmark's own spans
// around calls into each layer's public functions (see replayer), from
// /metrics counter deltas, and from the in-process measurements below.

// sweepKinds lists what each workload sends. The sweep replays, with no
// server, the kinds a workload does not send, so every layer metric is
// measured on every workload; a layer the workload bypasses is then
// measured on the seed's solve- or refresh-shaped inputs.
var sweepKinds = map[string]map[kind]bool{
	"solve":   {kInfer: true, kJoint: true, kSchedule: true},
	"refresh": {kObserve: true, kSessionInfer: true},
	"fleet":   {kObserve: true, kSessionInfer: true, kJoint: true, kSchedule: true},
}

// sweepRounds is how many write-read rounds the sweep replays per
// refresh-shaped session.
const sweepRounds = 3

// layerSweep replays the request kinds workload lacks. Its requests get
// negative ids, so their spans never mix with the traced requests'.
func layerSweep(rp *replayer, workload string, in *inputs, seed uint64) error {
	has := sweepKinds[workload]
	id := int64(0)
	run := func(req *request) error {
		id--
		return rp.replay(&outcome{req: req, id: id}, 0, false)
	}
	if !has[kInfer] {
		for k := range solveNs {
			for i := 0; i < 2; i++ {
				if err := run(inlineInfer(in.truth[k][i], in.truthMW[k][i], 1<<41+uint64(i), "")); err != nil {
					return err
				}
			}
		}
	}
	if !has[kJoint] {
		for _, req := range in.joints[:4] {
			if err := run(req); err != nil {
				return err
			}
		}
	}
	if !has[kSchedule] {
		for _, req := range in.schedule[:6] {
			if err := run(req); err != nil {
				return err
			}
		}
	}
	if !has[kObserve] {
		ref, err := genInputs("refresh", seed)
		if err != nil {
			return err
		}
		for round := 0; round < sweepRounds; round++ {
			for _, s := range ref.sessions {
				if err := run(s.batches[round]); err != nil {
					return err
				}
				if err := run(s.infer); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// snapshotTimes writes the mirrored sessions as a snapshot image reps
// times and returns each WriteSnapshot's duration in ms. Each record
// carries what blud's session record does: the id, digest and warm
// seed header plus the exported window.
func snapshotTimes(dir string, rp *replayer, reps int) ([]float64, error) {
	var records [][]byte
	for i, mr := range rp.windows {
		records = append(records, sessionRecord(fmt.Sprintf("session-%d", i), mr.win.Export()))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	store, _, err := persist.Open(dir, persist.Options{SyncInterval: time.Hour},
		func([]byte) error { return nil }, func(uint64, []byte) error { return nil })
	if err != nil {
		return nil, err
	}
	defer store.Close()
	var out []float64
	for r := 0; r < reps; r++ {
		cut, err := store.Rotate()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := store.WriteSnapshot(cut, records); err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// sessionRecord lays a window out the way blud's snapshot does: fixed
// header, then per epoch its (scheduled, accessed, count) entries,
// then the pair-freshness table.
func sessionRecord(id string, st *access.WindowState) []byte {
	b := make([]byte, 0, 256)
	b = append(b, 2, byte(len(id)))
	b = append(b, id...)
	b = binary.LittleEndian.AppendUint64(b, 0) // digest
	b = append(b, 0)                           // no warm seed
	b = binary.LittleEndian.AppendUint16(b, 0) // no minted keys
	b = append(b, byte(st.N))
	b = binary.LittleEndian.AppendUint32(b, uint32(st.Capacity))
	b = binary.LittleEndian.AppendUint64(b, uint64(st.Seq))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(st.Epochs)))
	for _, ep := range st.Epochs {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(ep.Entries)))
		for _, o := range ep.Entries {
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Scheduled))
			b = binary.LittleEndian.AppendUint64(b, uint64(o.Accessed))
			b = binary.LittleEndian.AppendUint32(b, uint32(o.Count))
		}
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(st.LastSeen)))
	for _, v := range st.LastSeen {
		b = binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
	}
	return b
}

// fleetLayers are the fleet layer times measured on an in-process fleet
// (router plus memory-only shards over the fleet workload's directory).
type fleetLayers struct {
	relayRouted, relayDirect []float64 // ms
	ringOwnerNs              []float64
	exchangeMs               []float64
}

// measureFleetLayers starts the in-process fleet, creates every cell's
// session and a first blueprint through the router, then times: the
// same joint request routed and sent direct to its owner, Ring.Owner
// over the directory's cells, and Shard.ExchangeOnce on every shard.
func measureFleetLayers(ctx context.Context, seed uint64, relayPairs, exchangeRounds int) (*fleetLayers, error) {
	in, err := genInputs("fleet", seed)
	if err != nil {
		return nil, err
	}
	l, err := fleet.StartLocal(fleet.LocalConfig{Shards: fleetShards, Directory: in.dir, Serve: serve.Config{Workers: 1}})
	if err != nil {
		return nil, err
	}
	defer func() {
		dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		l.Drain(dctx)
	}()
	client := newConnClient()
	defer client.CloseIdleConnections()
	for _, s := range in.sessions {
		for _, req := range []*request{s.batches[0], s.batches[1], s.infer} {
			o := &outcome{req: req}
			send(ctx, client, l.RouterAddr, o)
			if !o.ok() {
				return nil, fmt.Errorf("in-process fleet %s: status %d %s %v", kindPath[req.kind], o.status, o.body, o.err)
			}
		}
	}
	names := make([]string, fleetShards)
	for i := range names {
		names[i] = fleet.ShardName(i)
	}
	ring := fleet.NewRing(0, names...)
	fl := &fleetLayers{}

	jreq := in.sessions[0].joint
	direct := l.ShardAddrs[ring.Owner(in.dir.Cells[0].ID)] + kindPath[kJoint]
	routed := l.RouterAddr + kindPath[kJoint] + jreq.query
	for i := 0; i < relayPairs; i++ {
		for _, target := range []struct {
			url string
			out *[]float64
		}{{routed, &fl.relayRouted}, {direct, &fl.relayDirect}} {
			t0 := time.Now()
			status, _, _, err := post(ctx, client, target.url, jreq.body)
			if err != nil || status != http.StatusOK {
				return nil, fmt.Errorf("relay probe %s: status %d %v", target.url, status, err)
			}
			*target.out = append(*target.out, ms(time.Since(t0)))
		}
	}

	ids := in.dir.CellIDs()
	const lookups = 20000
	for r := 0; r < 5; r++ {
		var sink string
		t0 := time.Now()
		for i := 0; i < lookups; i++ {
			sink = ring.Owner(ids[i%len(ids)])
		}
		fl.ringOwnerNs = append(fl.ringOwnerNs, float64(time.Since(t0).Nanoseconds())/lookups)
		if sink == "" {
			return nil, fmt.Errorf("ring has no owner")
		}
	}

	for r := 0; r < exchangeRounds; r++ {
		for _, sh := range l.Shards {
			t0 := time.Now()
			if _, err := sh.ExchangeOnce(ctx); err != nil {
				return nil, fmt.Errorf("exchange round: %w", err)
			}
			fl.exchangeMs = append(fl.exchangeMs, ms(time.Since(t0)))
		}
	}
	return fl, nil
}

// layerOf maps a span name to its layer (the first name segment).
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// traceFile writes the spans as JSON lines.
func traceFile(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, s := range spans {
		fmt.Fprintf(f, "{\"name\":%q,\"req\":%d,\"id\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			s.Name, s.Req, s.ID, s.Parent, s.Start.UnixNano(), s.End.UnixNano())
	}
	return f.Close()
}
