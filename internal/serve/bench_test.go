package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"blu/internal/blueprint"
	"blu/internal/rng"
)

// benchTopo is the random hidden-terminal generator of the root
// bench_test.go, so the serve benchmarks run on the same instances as
// the solver benchmarks there.
func benchTopo(n, h int, seed uint64) *blueprint.Topology {
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

// BenchmarkCodecJSON measures the infer endpoint's JSON wire tax: one
// op is a full codec round trip — encode request, decode request,
// encode response, decode response — on a 16-client payload with a
// dense pair list, the shape bluload drives at the daemon.
func BenchmarkCodecJSON(b *testing.B) {
	truth := benchTopo(16, 8, 11)
	mw := MeasurementsWire{N: truth.N, P: make([]float64, truth.N)}
	for i := 0; i < truth.N; i++ {
		mw.P[i] = truth.AccessProb(i)
		for j := i + 1; j < truth.N; j++ {
			mw.Pairs = append(mw.Pairs, PairProb{I: i, J: j, P: truth.PairProb(i, j)})
		}
	}
	req := &InferRequest{Measurements: mw, Options: InferOptionsWire{Seed: 11}}
	resp := &InferResponse{
		Topology:     TopologyToWire(truth),
		Violation:    0.004,
		MaxViolation: 0.011,
		Converged:    true,
		Starts:       25,
		Iterations:   900,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqBody, err := json.Marshal(req)
		if err != nil {
			b.Fatal(err)
		}
		var r InferRequest
		if err := json.Unmarshal(reqBody, &r); err != nil {
			b.Fatal(err)
		}
		respBody, err := json.Marshal(resp)
		if err != nil {
			b.Fatal(err)
		}
		var p InferResponse
		if err := json.Unmarshal(respBody, &p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObserve measures one /v1/observe round trip — HTTP
// transport, decode, validation, session fold, digest — against an
// in-process daemon: the per-batch ingestion cost a streaming client
// pays.
func BenchmarkObserve(b *testing.B) {
	_, ts := newTestServer(b, Config{})
	req := ObserveRequest{Session: "bench", N: 8}
	r := rng.New(17).Split("observe-bench")
	for o := 0; o < 16; o++ {
		var ob ObservationWire
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
		b.Fatal(err)
	}
	client := ts.Client()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/v1/observe", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("observe: status %d", resp.StatusCode)
		}
	}
}
