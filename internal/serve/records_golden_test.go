package serve

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"testing"

	"blu/internal/blueprint"
)

// The goldens below pin the payloads serve writes into the persist
// containers (persist/format_test.go pins the containers themselves):
// a state directory written by any earlier build must keep replaying
// and restoring, so these bytes may only change together with a
// record-version bump.

// goldenObserveBatch is a fixed observe batch exercising every field
// walObservePayload canonicalizes: duplicate and unsorted scheduled
// clients, an empty observation, a seal and a deadline that must not
// reach the log.
func goldenObserveBatch() *ObserveRequest {
	return &ObserveRequest{
		Session:   "golden-cell",
		N:         5,
		Seal:      true,
		TimeoutMS: 250,
		Observations: []ObservationWire{
			{Scheduled: []int{3, 0, 1, 3}, Accessed: []int{0, 3}},
			{Scheduled: []int{4, 2}, Accessed: []int{}},
			{Scheduled: []int{}, Accessed: []int{}},
			{Scheduled: []int{0, 1, 2, 3, 4}, Accessed: []int{1, 2, 4}},
		},
	}
}

const goldenWALRecordHex = "" +
	"424c55570103420000000b676f6c64656e2d63656c6c05010000000004000300" +
	"0103090000000000000002020400000000000000000000000000000000000500" +
	"010203041600000000000000"

// goldenObserveDigest is the session digest after replaying the WAL
// golden into an empty server.
const goldenObserveDigest = "8a178c48f7d42acd"

// goldenSession builds a session on s with a fixed fold history (one
// sealed epoch, one open), a warm-start topology and one minted cache
// key with its body — every section of the snapshot record.
func goldenSession(t testing.TB, s *Server) *session {
	t.Helper()
	sess, _, err := s.sessions.getOrCreate("golden-cell", 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []*ObserveRequest{
		{Session: "golden-cell", N: 4, Seal: true, Observations: []ObservationWire{
			{Scheduled: []int{0, 1, 2, 3}, Accessed: []int{0, 2, 3}},
			{Scheduled: []int{0, 1}, Accessed: []int{1}},
		}},
		{Session: "golden-cell", N: 4, Observations: []ObservationWire{
			{Scheduled: []int{1, 2, 3}, Accessed: []int{1, 2, 3}},
		}},
	} {
		accessed, err := validateObserve(batch)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.foldObserve(sess, batch, accessed, nil); err != nil {
			t.Fatal(err)
		}
	}
	const key = 0x0123456789abcdef
	s.cache.put(key, []byte(`{"golden":true}`))
	sess.mu.Lock()
	sess.lastTopo = &blueprint.Topology{N: 4, HTs: []blueprint.HiddenTerminal{
		{Q: 0.25, Clients: blueprint.ClientSet(0).Add(0).Add(1)},
		{Q: 0.5, Clients: blueprint.ClientSet(0).Add(3)},
	}}
	sess.minted[key] = struct{}{}
	sess.mu.Unlock()
	return sess
}

const goldenSessionRecordHex = "" +
	"010b676f6c64656e2d63656c6c61ac1b3efc1bfc6401040200000000000000d0" +
	"3f0300000000000000000000000000e03f08000000000000000100efcdab8967" +
	"452301010f0000007b22676f6c64656e223a747275657d044000000001000000" +
	"0000000002000000020000000f000000000000000d0000000000000001000000" +
	"0300000000000000020000000000000001000000010000000e00000000000000" +
	"0e00000000000000010000000a00000000000000000000000000000000000000" +
	"0000000000000000000000000000010000000000000001000000000000000100" +
	"000000000000010000000000000001000000000000000100000000000000"

// TestWALRecordGolden pins walObservePayload's bytes for a fixed batch
// and replays the golden bytes through replayObserveRecord: the
// replayed session must reach the same digest as a live fold of the
// same batch.
func TestWALRecordGolden(t *testing.T) {
	req := goldenObserveBatch()
	accessed, err := validateObserve(req)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := walObservePayload(req, accessed)
	if err != nil {
		t.Fatal(err)
	}
	if got := hex.EncodeToString(payload); got != goldenWALRecordHex {
		t.Errorf("WAL record bytes moved:\n got %s\nwant %s", got, goldenWALRecordHex)
	}

	golden, err := hex.DecodeString(goldenWALRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	replayed := New(Config{Workers: 1})
	defer replayed.Abort()
	if err := replayed.replayObserveRecord(1, golden); err != nil {
		t.Fatalf("replay golden record: %v", err)
	}
	live := New(Config{Workers: 1})
	defer live.Abort()
	sess, _, err := live.sessions.getOrCreate(req.Session, req.N)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := live.foldObserve(sess, req, accessed, nil)
	if err != nil {
		t.Fatal(err)
	}
	got := replayed.sessions.get(req.Session)
	if got == nil {
		t.Fatal("replay installed no session")
	}
	if dg := fmt.Sprintf("%016x", got.digest); dg != resp.Digest || dg != goldenObserveDigest {
		t.Errorf("replayed digest %s, live fold %s, golden %s", dg, resp.Digest, goldenObserveDigest)
	}
}

// TestSessionRecordGolden pins encodeSessionRecord's bytes for a fixed
// session and restores the golden bytes: digest, warm-start topology
// and the minted body must come back, and re-encoding the restored
// session must reproduce the golden exactly.
func TestSessionRecordGolden(t *testing.T) {
	src := New(Config{Workers: 1})
	defer src.Abort()
	rec := src.encodeSessionRecord(goldenSession(t, src))
	if got := hex.EncodeToString(rec); got != goldenSessionRecordHex {
		t.Errorf("session record bytes moved:\n got %s\nwant %s", got, goldenSessionRecordHex)
	}

	golden, err := hex.DecodeString(goldenSessionRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	dst := New(Config{Workers: 1})
	defer dst.Abort()
	if err := dst.restoreSessionRecord(golden); err != nil {
		t.Fatalf("restore golden record: %v", err)
	}
	sess := dst.sessions.get("golden-cell")
	if sess == nil {
		t.Fatal("restore installed no session")
	}
	want := src.sessions.get("golden-cell")
	if sess.digest != want.digest {
		t.Errorf("restored digest %016x, want %016x", sess.digest, want.digest)
	}
	if sess.lastTopo == nil || sess.lastTopo.String() != want.lastTopo.String() {
		t.Errorf("restored warm topology %v, want %v", sess.lastTopo, want.lastTopo)
	}
	if body, ok := dst.cache.peek(0x0123456789abcdef); !ok || string(body) != `{"golden":true}` {
		t.Errorf("restored minted body %q (present %v)", body, ok)
	}
	if again := dst.encodeSessionRecord(sess); !bytes.Equal(again, golden) {
		t.Errorf("re-encoding the restored session moved the bytes:\n got %x\nwant %x", again, golden)
	}
}
