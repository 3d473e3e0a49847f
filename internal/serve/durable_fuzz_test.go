package serve

import (
	"encoding/binary"
	"encoding/hex"
	"testing"
)

// fuzzRestoreServer is the part of a Server restoreSessionRecord
// touches, built fresh per input so every record restores into an
// empty registry.
func fuzzRestoreServer() *Server {
	return &Server{cache: newLRUCache(16), sessions: newSessionStore(4, windowEpochs)}
}

// FuzzRestoreSessionRecord feeds arbitrary bytes to the session-record
// decoder, which reads both snapshot files and POST /v1/fleet/handoff
// bodies. Whatever the input it must not panic, and a record it
// accepts must install a session whose recomputed canonical digest
// equals the digest the record carries.
func FuzzRestoreSessionRecord(f *testing.F) {
	src := New(Config{Workers: 1})
	defer src.Abort()
	cold, _, err := src.sessions.getOrCreate("cold", 3)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range [][]byte{
		src.encodeSessionRecord(goldenSession(f, src)),
		src.encodeSessionRecord(cold),
	} {
		f.Add(rec)
		f.Add(rec[:len(rec)/2])
		flip := append([]byte(nil), rec...)
		flip[len(flip)-3] ^= 0x10
		f.Add(flip)
	}
	f.Fuzz(func(t *testing.T, rec []byte) {
		s := fuzzRestoreServer()
		if s.restoreSessionRecord(rec) != nil {
			return // refused whole; persist counts it corrupt
		}
		id, err := peekSessionRecordID(rec)
		if err != nil {
			t.Fatalf("accepted record has no readable id: %v", err)
		}
		sess := s.sessions.get(id)
		if sess == nil {
			t.Fatalf("accepted record installed no session %q", id)
		}
		recorded := binary.LittleEndian.Uint64(rec[2+len(id):])
		if sess.digest != recorded {
			t.Fatalf("installed digest %016x, record carries %016x", sess.digest, recorded)
		}
		if got := digestMeasurements(sess.win.Measurements()); got != recorded {
			t.Fatalf("restored window digests to %016x, record carries %016x", got, recorded)
		}
	})
}

// TestRestoreRejectsForgedCapacity is the regression test for a
// record declaring a huge window capacity: the ring is allocated at
// that size, so the decoder must refuse it before building the window.
func TestRestoreRejectsForgedCapacity(t *testing.T) {
	rec, err := hex.DecodeString(goldenSessionRecordHex)
	if err != nil {
		t.Fatal(err)
	}
	// The golden's window capacity sits after the id, digest, topology,
	// minted-key sections and the client count.
	const capOff = 88
	if got := binary.LittleEndian.Uint32(rec[capOff:]); got != windowEpochs {
		t.Fatalf("golden capacity field reads %d, want %d", got, windowEpochs)
	}
	binary.LittleEndian.PutUint32(rec[capOff:], 0xFFFFFFFF)
	if err := fuzzRestoreServer().restoreSessionRecord(rec); err == nil {
		t.Fatal("record with a 4-billion-epoch window restored")
	}
}
