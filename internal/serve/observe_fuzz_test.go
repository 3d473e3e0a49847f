package serve

import (
	"bytes"
	"encoding/json"
	"testing"

	"blu/internal/access"
	"blu/internal/rng"
)

// fuzzObserveSeeds builds realistic WAL observe frames from batches
// shaped like bluload's observe mix: random scheduled sets with
// partially-blocked outcomes over a handful of sessions.
func fuzzObserveSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	r := rng.New(0x0B53).Split("observe")
	var frames [][]byte
	for k := 0; k < 8; k++ {
		n := 3 + r.Intn(10)
		req := &ObserveRequest{
			Session: "seed-" + string(rune('a'+k)),
			N:       n,
			Seal:    k%2 == 0,
		}
		for o := 0; o < 1+r.Intn(6); o++ {
			var ob ObservationWire
			for c := 0; c < n; c++ {
				if r.Intn(3) > 0 {
					ob.Scheduled = append(ob.Scheduled, c)
					if r.Intn(4) > 0 {
						ob.Accessed = append(ob.Accessed, c)
					}
				}
			}
			req.Observations = append(req.Observations, ob)
		}
		frame, err := EncodeObserveRequest(req)
		if err != nil {
			tb.Fatalf("seed %d: %v", k, err)
		}
		frames = append(frames, frame)
	}
	return frames
}

// FuzzObserveWire hammers both observe ingestion paths — a JSON
// request body and a WAL record on replay — with arbitrary bytes:
// whatever the input, decoding must not panic; a WAL frame the decoder
// accepts must be canonical under re-encode; and any payload that
// passes the handler's
// validation gate must fold deterministically — two windows fed the
// same batch agree, and both agree with a batch access.Estimator —
// because the session digest (and so cache invalidation) is built on
// exactly that fold.
func FuzzObserveWire(f *testing.F) {
	for _, frame := range fuzzObserveSeeds(f) {
		f.Add(frame)
		f.Add(frame[:len(frame)*2/3])
		flip := append([]byte(nil), frame...)
		flip[len(flip)/2] ^= 0x10
		f.Add(flip)
		// The JSON spelling of the same frame, so the fuzzer mutates both
		// syntaxes from round one.
		if req, err := DecodeObserveRequest(frame); err == nil {
			if jbody, err := json.Marshal(req); err == nil {
				f.Add(jbody)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeObserveRequest(data)
		if err != nil {
			var jr ObserveRequest
			if json.Unmarshal(data, &jr) != nil {
				return // neither spelling decodes; rejection is the contract
			}
			req = &jr
		} else {
			frame, err := EncodeObserveRequest(req)
			if err != nil {
				t.Fatalf("accepted frame fails to re-encode: %v", err)
			}
			again, err := DecodeObserveRequest(frame)
			if err != nil {
				t.Fatalf("re-encoded frame fails to decode: %v", err)
			}
			frame2, err := EncodeObserveRequest(again)
			if err != nil || !bytes.Equal(frame, frame2) {
				t.Fatalf("codec is not canonical: second round trip changed the frame (%v)", err)
			}
		}

		accessed, err := validateObserve(req)
		if err != nil {
			return // the handler answers 400 and folds nothing
		}
		w1 := access.NewWindow(req.N, 8)
		w2 := access.NewWindow(req.N, 8)
		est := access.NewEstimator(req.N)
		for oi := range req.Observations {
			ob := &req.Observations[oi]
			if w1.Fold(ob.Scheduled, accessed[oi]) != w2.Fold(ob.Scheduled, accessed[oi]) {
				t.Fatal("identical folds report different usable counts")
			}
			est.Record(ob.Scheduled, accessed[oi])
		}
		if req.Seal {
			w1.Advance()
			w2.Advance()
		}
		d1 := digestMeasurements(w1.Measurements())
		if d2 := digestMeasurements(w2.Measurements()); d1 != d2 {
			t.Fatalf("fold is not deterministic: %016x vs %016x", d1, d2)
		}
		// One batch never overflows an 8-epoch window, so the windowed
		// aggregate must equal the batch estimator exactly.
		if de := digestMeasurements(est.Measurements()); d1 != de {
			t.Fatalf("windowed digest %016x disagrees with batch estimator %016x", d1, de)
		}
	})
}
