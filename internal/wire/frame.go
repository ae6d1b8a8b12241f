// Package wire implements the reproduction's TCP transport: a
// length-prefixed, CRC-protected framing layer carrying the RPCs of the
// internal/service interfaces between OS processes. One connection
// multiplexes any number of concurrent calls and event streams,
// distinguished by a client-chosen stream ID; payloads are the positional
// binary serialization (codec.go, codec_types.go) of the same
// ledger/service structs the in-process implementations pass by pointer.
//
// Frame layout (all integers big-endian):
//
//	offset size  field
//	0      2     magic 0xFA 0xB1
//	2      1     version (2)
//	3      1     frame type (request/response/event/cancel/event-batch)
//	4      8     stream ID
//	12     4     payload length
//	16     n     payload
//	16+n   4     CRC-32C over header+payload
//
// The trailing checksum turns line corruption into a typed ErrCorrupt
// instead of a parse error deep inside a handler; the length field is
// bounded by maxFrame so a corrupted length cannot force an arbitrary
// allocation.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	magic0 = 0xFA
	magic1 = 0xB1

	// version is the one accepted protocol version. Version 1 carried
	// JSON payloads and is rejected like any other unknown value.
	version = 2

	headerSize  = 16
	trailerSize = 4

	// DefaultMaxFrame bounds a single frame's payload. Blocks of
	// batched transactions are the largest payloads; 32 MiB leaves an
	// order of magnitude of headroom over the default batch size.
	DefaultMaxFrame = 32 << 20
)

// Frame types.
const (
	ftRequest  = 1 // client → server: open a call or stream
	ftResponse = 2 // server → client: terminal reply, or stream ACK (More)
	ftEvent    = 3 // server → client: one stream event
	ftCancel   = 4 // client → server: cancel the named stream's call
	ftEvents   = 5 // server → client: a batch of stream events, in order
)

var (
	// ErrCorrupt is returned when a frame fails structural validation:
	// bad magic, unknown version or type, or checksum mismatch.
	ErrCorrupt = errors.New("wire: corrupt frame")
	// ErrFrameTooLarge is returned when a frame's declared payload
	// exceeds the connection's maximum.
	ErrFrameTooLarge = errors.New("wire: frame exceeds maximum size")
)

// castagnoli is the CRC-32C table (iSCSI polynomial), hardware
// accelerated on amd64/arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frame is one protocol frame. Payload is the raw encoded body.
type frame struct {
	Type    byte
	Stream  uint64
	Payload []byte
}

// appendFrame serializes f into buf (reusing its capacity) and returns
// the encoded frame.
func appendFrame(buf []byte, f frame) []byte {
	n := headerSize + len(f.Payload) + trailerSize
	if cap(buf) < n {
		buf = make([]byte, 0, n)
	}
	buf = buf[:headerSize]
	buf[0], buf[1], buf[2], buf[3] = magic0, magic1, version, f.Type
	binary.BigEndian.PutUint64(buf[4:], f.Stream)
	binary.BigEndian.PutUint32(buf[12:], uint32(len(f.Payload)))
	buf = append(buf, f.Payload...)
	sum := crc32.Checksum(buf, castagnoli)
	return binary.BigEndian.AppendUint32(buf, sum)
}

// writeFrame encodes and writes one frame.
func writeFrame(w io.Writer, f frame, maxFrame int) error {
	if len(f.Payload) > maxFrame {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	_, err := w.Write(appendFrame(nil, f))
	return err
}

// readFrame reads and validates one frame. Corruption (bad magic,
// version, type or CRC) is ErrCorrupt; an oversized declared length is
// ErrFrameTooLarge. Both poison the connection — framing cannot be
// resynchronized mid-stream. A non-empty payload arrives in a pooled
// buffer: the caller owns it and releases it with putBuf once decoded.
func readFrame(r io.Reader, maxFrame int) (frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return frame{}, err
	}
	if hdr[0] != magic0 || hdr[1] != magic1 {
		return frame{}, fmt.Errorf("%w: bad magic %02x%02x", ErrCorrupt, hdr[0], hdr[1])
	}
	if hdr[2] != version {
		return frame{}, fmt.Errorf("%w: unknown version %d", ErrCorrupt, hdr[2])
	}
	ft := hdr[3]
	if ft < ftRequest || ft > ftEvents {
		return frame{}, fmt.Errorf("%w: unknown frame type %d", ErrCorrupt, ft)
	}
	length := binary.BigEndian.Uint32(hdr[12:])
	if int64(length) > int64(maxFrame) {
		return frame{}, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, length)
	}
	var payload []byte
	if length > 0 {
		payload = getBuf(int(length))[:length]
		if _, err := io.ReadFull(r, payload); err != nil {
			putBuf(payload)
			return frame{}, err
		}
	}
	var trailer [trailerSize]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		putBuf(payload)
		return frame{}, err
	}
	sum := crc32.Checksum(hdr[:], castagnoli)
	sum = crc32.Update(sum, castagnoli, payload)
	if got := binary.BigEndian.Uint32(trailer[:]); got != sum {
		putBuf(payload)
		return frame{}, fmt.Errorf("%w: checksum %08x, computed %08x", ErrCorrupt, got, sum)
	}
	return frame{Type: ft, Stream: binary.BigEndian.Uint64(hdr[4:]), Payload: payload}, nil
}
