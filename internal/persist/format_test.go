package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// The golden images pin the on-disk format: these are the exact bytes
// a version-2 daemon wrote for the inputs below, so directories it left
// behind must keep opening unchanged.
const (
	goldenSnapshotHex = "424c55530200000007000000000000000300000005000000616c70686100006a39e0d0" +
		"0000000000000000000009000000626574612d6265746100005e0b9c408f5e325253554c42"
	goldenSegmentHex = "424c554c0200000007000000000000000500000007000000000000006f62732d3700" +
		"0027b66a360000000008000000000000000000dcc4c7b60800000009000000000000006f62" +
		"732d6e696e650000eb9d9cca"
)

var (
	goldenSnapRecords = [][]byte{[]byte("alpha"), {}, []byte("beta-beta")}
	goldenWALRecords  = [][]byte{[]byte("obs-7"), {}, []byte("obs-nine")}
)

const goldenFirstLSN = 7 // also the snapshot's cut

func goldenImages(t *testing.T) (snap, seg []byte) {
	t.Helper()
	snap, err := hex.DecodeString(goldenSnapshotHex)
	if err != nil {
		t.Fatal(err)
	}
	seg, err = hex.DecodeString(goldenSegmentHex)
	if err != nil {
		t.Fatal(err)
	}
	return snap, seg
}

// writeStateDir lays snap and seg down as a state directory's snapshot
// and first WAL segment.
func writeStateDir(t *testing.T, snap, seg []byte) string {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, SnapshotFile), snap, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, segmentName(goldenFirstLSN)), seg, 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// recoverDir opens dir and returns what reached the callbacks.
func recoverDir(t *testing.T, dir string) (restored [][]byte, rl replayLog, stats *RecoverStats) {
	t.Helper()
	s, stats := openForTest(t, dir, slowOpts, func(rec []byte) error {
		restored = append(restored, append([]byte(nil), rec...))
		return nil
	}, rl.fn)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return restored, rl, stats
}

func TestFormatGoldenBytes(t *testing.T) {
	snap, seg := goldenImages(t)
	if got := encodeSnapshot(goldenFirstLSN, goldenSnapRecords); !bytes.Equal(got, snap) {
		t.Fatalf("snapshot encoder drifted:\n got %x\nwant %x", got, snap)
	}
	gotSeg := appendWALHeader(nil, goldenFirstLSN)
	for i, r := range goldenWALRecords {
		gotSeg = appendWALRecord(gotSeg, goldenFirstLSN+uint64(i), r)
	}
	if !bytes.Equal(gotSeg, seg) {
		t.Fatalf("segment encoder drifted:\n got %x\nwant %x", gotSeg, seg)
	}

	restored, rl, stats := recoverDir(t, writeStateDir(t, snap, seg))
	if stats.SnapshotRecords != 3 || stats.WALReplayed != 3 || stats.CorruptDropped != 0 || stats.NextLSN != 10 {
		t.Fatalf("golden recovery stats: %+v", stats)
	}
	for i, r := range goldenSnapRecords {
		if !bytes.Equal(restored[i], r) {
			t.Fatalf("restored record %d = %q, want %q", i, restored[i], r)
		}
	}
	for i, r := range goldenWALRecords {
		if rl.lsns[i] != goldenFirstLSN+uint64(i) || !bytes.Equal(rl.payloads[i], r) {
			t.Fatalf("replay %d: lsn %d payload %q", i, rl.lsns[i], rl.payloads[i])
		}
	}
}

// Any header version but the current one is damage: counted, and none
// of the file's records reach restore or replay — including a v1 file
// from a build that still wrote that format.
func TestOtherVersionHeadersCountedCorrupt(t *testing.T) {
	for _, version := range []uint32{1, 3} {
		snap, seg := goldenImages(t)
		binary.LittleEndian.PutUint32(snap[4:], version)
		binary.LittleEndian.PutUint32(seg[4:], version)
		restored, rl, stats := recoverDir(t, writeStateDir(t, snap, seg))
		if len(restored) != 0 || len(rl.lsns) != 0 {
			t.Fatalf("version %d: delivered %d records and %d replays", version, len(restored), len(rl.lsns))
		}
		if stats.CorruptDropped != 2 || stats.SnapshotRecords != 0 || stats.WALReplayed != 0 {
			t.Fatalf("version %d: stats %+v, want the snapshot and the segment counted corrupt", version, stats)
		}
	}
}

// A nonzero reserved field means record boundaries are lost: the scan
// stops there, and every record before it is still recovered.
func TestNonzeroReservedFieldEndsScan(t *testing.T) {
	snap, seg := goldenImages(t)
	// Record 2 (empty payload) in each image: the reserved field sits
	// right after its length (and, in the WAL, its LSN).
	snap[snapshotHeaderLen+4+snapshotFrameLen+len(goldenSnapRecords[0])+4] = 1
	seg[walHeaderLen+walFrameLen+len(goldenWALRecords[0])+12] = 1

	restored, rl, stats := recoverDir(t, writeStateDir(t, snap, seg))
	if len(restored) != 1 || !bytes.Equal(restored[0], goldenSnapRecords[0]) {
		t.Fatalf("restored %q, want only the record before the break", restored)
	}
	if len(rl.lsns) != 1 || rl.lsns[0] != goldenFirstLSN || !bytes.Equal(rl.payloads[0], goldenWALRecords[0]) {
		t.Fatalf("replayed lsns %v, want only %d", rl.lsns, goldenFirstLSN)
	}
	// Snapshot: the 2 records from the break on; WAL: the lost tail.
	if stats.CorruptDropped != 3 {
		t.Fatalf("corrupt dropped %d, want 3: %+v", stats.CorruptDropped, stats)
	}
}
