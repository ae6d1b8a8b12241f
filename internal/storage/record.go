package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Record framing (docs/STORAGE.md §2) is the one frame for every record
// on disk, segment logs and snapshot chunks alike:
//
//	offset  size  field
//	0       4     length N of the body, big-endian uint32
//	4       4     CRC-32C (Castagnoli) of the body, big-endian uint32
//	8       N     body
//
// A record is intact iff the header fits, 1 <= N <= MaxRecordBytes, the
// body fits, and the CRC matches.
const (
	RecordHeaderLen = 8
	// MaxRecordBytes bounds one record body. A larger length field is
	// corruption, so a damaged header cannot drive a huge allocation.
	MaxRecordBytes = 64 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// AppendRecord appends the frame of body to dst.
func AppendRecord(dst, body []byte) []byte {
	dst = slices.Grow(dst, RecordHeaderLen+len(body))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(body)))
	dst = binary.BigEndian.AppendUint32(dst, crc32.Checksum(body, castagnoli))
	return append(dst, body...)
}

// ReadRecord reads one framed record from r and returns its body. It
// returns io.EOF when r is empty, and an error wrapping ErrCorrupt for a
// short header, a short body, a length of 0 or above MaxRecordBytes, or
// a CRC mismatch; any other read failure wraps ErrIO. The caller decides
// whether a bad record is a torn tail or corruption (docs/STORAGE.md §6).
// ReadRecord consumes the header and, when the length is in bounds, as
// much of the body as r holds, so a bad record was the last thing in r
// iff r is exhausted afterwards.
func ReadRecord(r io.Reader) ([]byte, error) {
	var hdr [RecordHeaderLen]byte
	switch _, err := io.ReadFull(r, hdr[:]); {
	case err == io.EOF:
		return nil, io.EOF
	case err == io.ErrUnexpectedEOF:
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	case err != nil:
		return nil, fmt.Errorf("%w: read record: %v", ErrIO, err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n == 0 || n > MaxRecordBytes {
		return nil, fmt.Errorf("%w: record length %d out of bounds", ErrCorrupt, n)
	}
	// Grown as bytes arrive, so a damaged length costs at most what r holds.
	body, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("%w: read record: %v", ErrIO, err)
	}
	if len(body) < int(n) {
		return nil, fmt.Errorf("%w: short body", ErrCorrupt)
	}
	if crc32.Checksum(body, castagnoli) != binary.BigEndian.Uint32(hdr[4:8]) {
		return nil, fmt.Errorf("%w: record crc mismatch", ErrCorrupt)
	}
	return body, nil
}
