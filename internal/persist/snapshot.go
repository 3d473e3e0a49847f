// Snapshot image: the point-in-time half of the durability layer. A
// snapshot is a single "BLUS" file holding one opaque record per live
// session plus the WAL cut — the LSN from which replay must resume for
// the pair (snapshot, WAL) to equal the never-restarted state.
//
// File layout (all multi-byte fields little-endian):
//
//	[4]byte magic "BLUS"
//	u32    version (2)
//	u64    cut — first WAL LSN not reflected in the image
//	u32    record count
//	records:
//	  u32  len, len payload bytes
//	  u16  reserved, always 0
//	  u32  crc32-IEEE(payload)
//	footer:
//	  u32  crc32-IEEE over every preceding byte
//	  [4]byte magic "SULB"
//
// There is one format: an image whose header names any other version
// is unusable and none of its records are restored. A nonzero reserved
// field is read as a lost record boundary, like an impossible length.
//
// The image is written tmp-file + fsync + rename + dir-fsync, so a
// reader only ever sees the previous complete snapshot or the new one.
// The decoder still refuses to trust bytes it cannot verify: records
// are independent sessions, so one with a bad CRC is skipped and
// counted while the rest load; a broken length field ends the scan
// (boundaries are gone); and a footer mismatch marks the image damaged
// even when every surviving record checked out.
package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

const (
	snapshotVersion   = 2
	snapshotHeaderLen = 16 // magic(4) + version(4) + cut(8) ... count follows
	snapshotFooterLen = 8  // crc(4) + magic(4)
	snapshotFrameLen  = 10 // len(4) + reserved(2) + crc(4)

	// SnapshotFile is the image's name inside the state directory.
	SnapshotFile = "state.blus"
)

var (
	snapMagic       = [4]byte{'B', 'L', 'U', 'S'}
	snapFooterMagic = [4]byte{'S', 'U', 'L', 'B'}
)

// encodeSnapshot renders a complete BLUS image.
func encodeSnapshot(cut uint64, records [][]byte) []byte {
	size := snapshotHeaderLen + 4 + snapshotFooterLen
	for _, r := range records {
		size += snapshotFrameLen + len(r)
	}
	b := make([]byte, 0, size)
	b = append(b, snapMagic[:]...)
	b = binary.LittleEndian.AppendUint32(b, snapshotVersion)
	b = binary.LittleEndian.AppendUint64(b, cut)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(records)))
	for _, r := range records {
		b = binary.LittleEndian.AppendUint32(b, uint32(len(r)))
		b = append(b, r...)
		b = binary.LittleEndian.AppendUint16(b, 0) // reserved
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(r))
	}
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	b = append(b, snapFooterMagic[:]...)
	return b
}

// snapshotScan is the outcome of decoding one image.
type snapshotScan struct {
	cut     uint64
	records [][]byte
	skipped int // per-record CRC failures and lost tails, counted
}

// decodeSnapshot parses a BLUS image, salvaging every record
// whose own CRC verifies. It returns an error only when the header is
// unusable (wrong magic, unknown version, too short) — then there is no
// snapshot to speak of; any lesser damage is reported through skipped
// so the caller can count it without losing the intact sessions.
func decodeSnapshot(data []byte) (*snapshotScan, error) {
	if len(data) < snapshotHeaderLen+4 {
		return nil, fmt.Errorf("persist: snapshot is %d bytes, header needs %d", len(data), snapshotHeaderLen+4)
	}
	if [4]byte(data[:4]) != snapMagic {
		return nil, fmt.Errorf("persist: snapshot has bad magic %q", data[:4])
	}
	version := binary.LittleEndian.Uint32(data[4:])
	if version != snapshotVersion {
		return nil, fmt.Errorf("persist: snapshot version %d, want %d", version, snapshotVersion)
	}
	sc := &snapshotScan{cut: binary.LittleEndian.Uint64(data[8:])}
	count := binary.LittleEndian.Uint32(data[16:])

	body := data
	footerOK := false
	if len(data) >= snapshotHeaderLen+4+snapshotFooterLen &&
		[4]byte(data[len(data)-4:]) == snapFooterMagic {
		fileCRC := binary.LittleEndian.Uint32(data[len(data)-snapshotFooterLen:])
		body = data[:len(data)-snapshotFooterLen]
		footerOK = fileCRC == crc32.ChecksumIEEE(body)
	}

	off := snapshotHeaderLen + 4
	for i := uint32(0); i < count; i++ {
		if len(body)-off < snapshotFrameLen {
			sc.skipped += int(count - i) // torn tail: the rest never made it
			return sc, nil
		}
		plen := binary.LittleEndian.Uint32(body[off:])
		if plen > maxRecordLen || int(plen) > len(body)-off-snapshotFrameLen {
			sc.skipped += int(count - i) // boundary lost
			return sc, nil
		}
		end := off + 4 + int(plen)
		if binary.LittleEndian.Uint16(body[end:]) != 0 {
			sc.skipped += int(count - i) // reserved field set: boundary lost
			return sc, nil
		}
		payload := body[off+4 : end]
		gotCRC := binary.LittleEndian.Uint32(body[end+2:])
		off = end + 6 // reserved(2) + crc(4)
		if gotCRC != crc32.ChecksumIEEE(payload) {
			sc.skipped++
			continue
		}
		sc.records = append(sc.records, payload)
	}
	if !footerOK {
		// Every surviving record carried its own proof, but the image as
		// a whole (header fields included) failed verification — count
		// the damage so recovery metrics show it.
		sc.skipped++
	}
	return sc, nil
}

// loadSnapshot reads the directory's image. A missing file is a clean
// cold start: nil scan, no error.
func loadSnapshot(dir string) (*snapshotScan, error) {
	data, err := os.ReadFile(filepath.Join(dir, SnapshotFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data)
}

// writeFileAtomic writes data at path via tmp + fsync + rename, then
// fsyncs the directory so the rename itself is durable.
func writeFileAtomic(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmpName)
		return werr
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making renames and creates durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	if cerr := d.Close(); serr == nil {
		serr = cerr
	}
	return serr
}
