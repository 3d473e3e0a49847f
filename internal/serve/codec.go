// Durable record codec: the length-prefixed binary frame serve writes
// as its observe WAL record (walObservePayload encodes it,
// replayObserveRecord decodes it on recovery), plus the fixed-width
// field reader/writer the snapshot's session record is built from
// (durable.go). HTTP bodies are JSON only (wire.go); these bytes live
// on disk, so the layout below is frozen — a change needs a new
// version byte.
//
// Frame layout (all multi-byte fields little-endian):
//
//	[4]byte magic "BLUW"
//	u8     version (currently 1)
//	u8     kind    (3 = observe request; 1, 2 and 4 are reserved
//	                and never reused)
//	u32    payload length
//	...    payload (exactly the declared length; trailing bytes reject)
//
// Observe request payload (one observation is 2 + schedCount + 8
// bytes):
//
//	u8  sessionLen, sessionLen bytes of session id
//	u8  n
//	u8  seal (0 or 1)
//	i32 timeoutMS
//	u16 count, count × (u8 schedCount, schedCount × u8 scheduled,
//	                    u64 accessed bitmask)
//
// Decoding is structural only — index ranges stay the job of
// validateObserve, the same gate a live request goes through. Every
// malformed input returns an error wrapping errMalformedFrame; nothing
// panics, which FuzzObserveWire enforces.
package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"blu/internal/blueprint"
)

const (
	wireVersion        = 1
	kindObserveRequest = 3

	frameHeaderLen = 10 // magic(4) + version(1) + kind(1) + length(4)

	// maxFramePayload caps the declared payload length at the HTTP
	// body cap, so a forged length field cannot drive a huge
	// allocation.
	maxFramePayload = 8 << 20
)

var wireMagic = [4]byte{'B', 'L', 'U', 'W'}

// errMalformedFrame is the sentinel every decode failure wraps.
var errMalformedFrame = errors.New("binary codec: malformed frame")

func frameErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errMalformedFrame, fmt.Sprintf(format, args...))
}

// wireWriter appends fixed-width little-endian fields to a buffer that
// was pre-sized by the encoder, so a whole encode is one allocation.
type wireWriter struct{ b []byte }

func (w *wireWriter) u8(v byte)     { w.b = append(w.b, v) }
func (w *wireWriter) u16(v uint16)  { w.b = binary.LittleEndian.AppendUint16(w.b, v) }
func (w *wireWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

// i32 encodes a Go int that must fit int32 (the wire width for counts
// and option knobs).
func (w *wireWriter) i32(name string, v int) error {
	if v < math.MinInt32 || v > math.MaxInt32 {
		return fmt.Errorf("binary codec: %s=%d does not fit int32", name, v)
	}
	w.u32(uint32(int32(v)))
	return nil
}

// wireReader consumes fixed-width little-endian fields with explicit
// bounds checks; every short read is a truncated-frame error.
type wireReader struct {
	b   []byte
	off int
}

func (r *wireReader) remaining() int { return len(r.b) - r.off }

func (r *wireReader) u8() (byte, error) {
	if r.remaining() < 1 {
		return 0, frameErr("truncated at byte %d", r.off)
	}
	v := r.b[r.off]
	r.off++
	return v, nil
}

func (r *wireReader) u16() (uint16, error) {
	if r.remaining() < 2 {
		return 0, frameErr("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint16(r.b[r.off:])
	r.off += 2
	return v, nil
}

func (r *wireReader) u32() (uint32, error) {
	if r.remaining() < 4 {
		return 0, frameErr("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint32(r.b[r.off:])
	r.off += 4
	return v, nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, frameErr("truncated at byte %d", r.off)
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

func (r *wireReader) i32() (int, error) {
	v, err := r.u32()
	return int(int32(v)), err
}

// appendFrameHeader writes the frame header with a placeholder length
// and returns the offset to backpatch once the payload is written.
func appendFrameHeader(b []byte) ([]byte, int) {
	b = append(b, wireMagic[:]...)
	b = append(b, wireVersion, kindObserveRequest)
	lenOff := len(b)
	b = append(b, 0, 0, 0, 0)
	return b, lenOff
}

// openFrame validates the header and returns the payload slice.
func openFrame(data []byte) ([]byte, error) {
	if len(data) < frameHeaderLen {
		return nil, frameErr("%d bytes, header needs %d", len(data), frameHeaderLen)
	}
	if [4]byte(data[:4]) != wireMagic {
		return nil, frameErr("bad magic %q", data[:4])
	}
	if data[4] != wireVersion {
		return nil, frameErr("unsupported version %d", data[4])
	}
	if data[5] != kindObserveRequest {
		return nil, frameErr("kind %d, want %d", data[5], kindObserveRequest)
	}
	n := binary.LittleEndian.Uint32(data[6:])
	if n > maxFramePayload {
		return nil, frameErr("declared payload %d exceeds cap %d", n, maxFramePayload)
	}
	payload := data[frameHeaderLen:]
	if uint32(len(payload)) != n {
		return nil, frameErr("payload is %d bytes, header declares %d", len(payload), n)
	}
	return payload, nil
}

// EncodeObserveRequest renders req as one observe frame — the WAL
// record format. Accessed sets travel as 64-bit membership masks, so
// an accessed client outside [0,64) is unrepresentable and errors
// (validateObserve rejects such an index before anything is logged).
func EncodeObserveRequest(req *ObserveRequest) ([]byte, error) {
	if len(req.Session) > 255 {
		return nil, fmt.Errorf("binary codec: session id %d bytes does not fit the wire", len(req.Session))
	}
	if req.N < 0 || req.N > 255 {
		return nil, fmt.Errorf("binary codec: n=%d does not fit the wire", req.N)
	}
	if len(req.Observations) > math.MaxUint16 {
		return nil, fmt.Errorf("binary codec: %d observations do not fit the wire", len(req.Observations))
	}
	size := frameHeaderLen + 1 + len(req.Session) + 1 + 1 + 4 + 2
	for i := range req.Observations {
		size += 1 + len(req.Observations[i].Scheduled) + 8
	}
	w := wireWriter{b: make([]byte, 0, size)}
	var lenOff int
	w.b, lenOff = appendFrameHeader(w.b)

	w.u8(byte(len(req.Session)))
	w.b = append(w.b, req.Session...)
	w.u8(byte(req.N))
	if req.Seal {
		w.u8(1)
	} else {
		w.u8(0)
	}
	if err := w.i32("timeout_ms", req.TimeoutMS); err != nil {
		return nil, err
	}
	w.u16(uint16(len(req.Observations)))
	for oi := range req.Observations {
		ob := &req.Observations[oi]
		if len(ob.Scheduled) > 255 {
			return nil, fmt.Errorf("binary codec: observation %d schedules %d clients, wire cap 255",
				oi, len(ob.Scheduled))
		}
		w.u8(byte(len(ob.Scheduled)))
		for _, c := range ob.Scheduled {
			if c < 0 || c > 255 {
				return nil, fmt.Errorf("binary codec: observation %d scheduled client %d does not fit the wire", oi, c)
			}
			w.u8(byte(c))
		}
		var mask uint64
		for _, c := range ob.Accessed {
			if c < 0 || c >= blueprint.MaxClients {
				return nil, fmt.Errorf("binary codec: observation %d accessed client %d does not fit the wire mask", oi, c)
			}
			mask |= 1 << uint(c)
		}
		w.u64(mask)
	}

	binary.LittleEndian.PutUint32(w.b[lenOff:], uint32(len(w.b)-frameHeaderLen))
	return w.b, nil
}

// DecodeObserveRequest parses one observe frame into the same wire
// struct the JSON decoder fills, so WAL replay runs the live request's
// validation and fold path. Accessed masks decode to ascending member
// lists, matching the canonical JSON rendering.
func DecodeObserveRequest(data []byte) (*ObserveRequest, error) {
	payload, err := openFrame(data)
	if err != nil {
		return nil, err
	}
	r := wireReader{b: payload}
	req := &ObserveRequest{}

	sessLen, err := r.u8()
	if err != nil {
		return nil, err
	}
	if r.remaining() < int(sessLen) {
		return nil, frameErr("truncated session id: %d bytes left for %d", r.remaining(), sessLen)
	}
	req.Session = string(r.b[r.off : r.off+int(sessLen)])
	r.off += int(sessLen)
	n, err := r.u8()
	if err != nil {
		return nil, err
	}
	req.N = int(n)
	seal, err := r.u8()
	if err != nil {
		return nil, err
	}
	if seal > 1 {
		return nil, frameErr("seal byte %d, want 0 or 1", seal)
	}
	req.Seal = seal == 1
	if req.TimeoutMS, err = r.i32(); err != nil {
		return nil, err
	}
	count, err := r.u16()
	if err != nil {
		return nil, err
	}
	if count > 0 {
		req.Observations = make([]ObservationWire, count)
		for oi := range req.Observations {
			schedCount, err := r.u8()
			if err != nil {
				return nil, err
			}
			if r.remaining() < int(schedCount)+8 {
				return nil, frameErr("truncated observation %d: %d bytes left for %d scheduled + mask",
					oi, r.remaining(), schedCount)
			}
			sched := make([]int, schedCount)
			for si := range sched {
				b, _ := r.u8()
				sched[si] = int(b)
			}
			mask, _ := r.u64()
			acc := make([]int, 0, bits.OnesCount64(mask))
			for v := mask; v != 0; v &= v - 1 {
				acc = append(acc, bits.TrailingZeros64(v))
			}
			req.Observations[oi] = ObservationWire{Scheduled: sched, Accessed: acc}
		}
	}
	if r.remaining() != 0 {
		return nil, frameErr("%d trailing payload bytes", r.remaining())
	}
	return req, nil
}
