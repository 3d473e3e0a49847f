// POST /v1/observe — streaming ingestion of per-subframe access
// outcomes. Batches fold into a bounded windowed estimator keyed by a
// client-chosen session (topology) id; an infer may then name the
// session instead of carrying measurements inline and is warm-started
// from the session's previous blueprint. When a fold moves the
// session's canonical measurement digest, exactly the result-cache
// entries minted from that session are invalidated (DESIGN.md §14).
package serve

import (
	"context"
	"fmt"
	"net/http"

	"blu/internal/blueprint"
)

// maxSessionIDLen bounds the client-chosen session id, keeping digest
// and registry costs independent of client input.
const maxSessionIDLen = 128

// maxObserveBatch bounds observations per request. At ~1 subframe per
// ms, one batch covers four seconds of airtime — a forged count cannot
// hold the session lock for long.
const maxObserveBatch = 4096

// validateObserve is the whole-batch gate in front of the session
// store: session id, client count, batch size, and every index are
// checked before anything folds, so a bad batch folds nothing. It
// returns the per-observation accessed sets ready for Window.Fold.
// Accessed clients that were never scheduled are ignored at fold time
// (the estimator only counts scheduled slots), matching
// access.Estimator.Record's semantics; out-of-range indices are a
// protocol error, not evidence.
func validateObserve(req *ObserveRequest) ([]blueprint.ClientSet, error) {
	if req.Session == "" {
		return nil, fmt.Errorf("session id required")
	}
	if len(req.Session) > maxSessionIDLen {
		return nil, fmt.Errorf("session id is %d bytes, cap %d", len(req.Session), maxSessionIDLen)
	}
	if req.N < 1 || req.N > blueprint.MaxClients {
		return nil, fmt.Errorf("n=%d out of range [1,%d]", req.N, blueprint.MaxClients)
	}
	if len(req.Observations) > maxObserveBatch {
		return nil, fmt.Errorf("%d observations exceed batch cap %d", len(req.Observations), maxObserveBatch)
	}
	accessed := make([]blueprint.ClientSet, len(req.Observations))
	for oi := range req.Observations {
		ob := &req.Observations[oi]
		for _, c := range ob.Scheduled {
			if c < 0 || c >= req.N {
				return nil, fmt.Errorf("observations[%d]: scheduled client %d out of range for n=%d", oi, c, req.N)
			}
		}
		var acc blueprint.ClientSet
		for _, c := range ob.Accessed {
			if c < 0 || c >= req.N {
				return nil, fmt.Errorf("observations[%d]: accessed client %d out of range for n=%d", oi, c, req.N)
			}
			acc = acc.Add(c)
		}
		accessed[oi] = acc
	}
	return accessed, nil
}

// handleObserve is POST /v1/observe: a batch of per-subframe access
// outcomes → the session's windowed estimator.
func (s *Server) handleObserve(w http.ResponseWriter, r *http.Request) {
	var req ObserveRequest
	if err := decode(r, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	accessed, err := validateObserve(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}

	sess, evicted, err := s.sessions.getOrCreate(req.Session, req.N)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	if evicted != nil {
		s.dropSessionKeys(evicted)
	}

	// Durable servers log the batch before folding it. The canonical
	// payload is encoded off the lock; the append itself (LSN
	// assignment) happens inside the fold's critical section so WAL
	// order and fold order agree per session.
	var walPayload []byte
	if s.store != nil {
		walPayload, err = walObservePayload(&req, accessed)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
	}

	ctx, cancel := s.requestContext(r, req.TimeoutMS)
	defer cancel()
	var resp ObserveResponse
	var foldErr error
	ran := false
	if err := s.submit(ctx, func(context.Context) {
		s.stateMu.RLock()
		resp, foldErr = s.foldObserve(sess, &req, accessed, walPayload)
		s.stateMu.RUnlock()
		ran = true
	}); err != nil {
		st, msg := submitErrToStatus(err)
		writeError(w, st, msg)
		return
	}
	if !ran {
		writeError(w, http.StatusGatewayTimeout, "request deadline exceeded")
		return
	}
	if foldErr != nil {
		// The WAL refused the batch, so nothing folded: the observation
		// is not durable and must not be acknowledged.
		writeError(w, http.StatusInternalServerError, "durability layer: "+foldErr.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// foldObserve applies one validated batch to its session under the
// session lock: append the batch to the WAL (durable servers; the
// append assigns the LSN here so per-session WAL order equals fold
// order — sealing does not commute with folds), fold every
// observation, optionally seal the epoch, recompute the canonical
// digest, and — when the digest moved — invalidate exactly the cache
// entries this session minted. Fold, digest, and invalidation share
// one critical section so an infer snapshotting the session never sees
// them disagree. A nil walPayload skips logging (memory-only servers
// and WAL replay itself). An append error fails the batch before
// anything folds — a fold either becomes durable or does not happen.
func (s *Server) foldObserve(sess *session, req *ObserveRequest, accessed []blueprint.ClientSet, walPayload []byte) (ObserveResponse, error) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	resp := ObserveResponse{Session: sess.id}
	if walPayload != nil && s.store != nil {
		if _, err := s.store.Append(walPayload); err != nil {
			return resp, err
		}
	}
	for oi := range req.Observations {
		if sess.win.Fold(req.Observations[oi].Scheduled, accessed[oi]) > 0 {
			resp.Folded++
		}
	}
	if req.Seal && sess.win.Advance() {
		resp.Evicted++
	}
	dg := digestMeasurements(sess.win.Measurements())
	if dg != sess.digest {
		sess.digest = dg
		for key := range sess.minted {
			if s.cache.remove(key) {
				resp.Invalidated++
			}
		}
		clear(sess.minted)
		obsInvalidation.Add(int64(resp.Invalidated))
	}
	resp.Epoch = sess.win.Epoch()
	resp.Digest = fmt.Sprintf("%016x", dg)
	return resp, nil
}

// dropSessionKeys invalidates every cache entry minted by a session
// evicted from the registry: a dead session can no longer watch its
// digest, so its cached results must not outlive it.
func (s *Server) dropSessionKeys(sess *session) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for key := range sess.minted {
		if s.cache.remove(key) {
			obsInvalidation.Inc()
		}
	}
	clear(sess.minted)
}

// mintSessionKey records that a just-cached infer result was derived
// from sess's measurements, making it invalidatable, and stores the
// result as the session's next warm seed. snapDigest is the digest the
// measurements carried when they were snapshotted; if the session has
// since moved on, the entry is already stale for this session — the
// fold that moved the digest could not have known the key — so it is
// dropped instead of minted.
func (s *Server) mintSessionKey(sess *session, snapDigest, key uint64, topo *blueprint.Topology) {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.digest != snapDigest {
		if s.cache.remove(key) {
			obsInvalidation.Inc()
		}
		return
	}
	sess.minted[key] = struct{}{}
	sess.lastTopo = topo
}
