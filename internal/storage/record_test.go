package storage

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"
)

// FuzzReadRecord: ReadRecord never panics and never allocates a body
// above MaxRecordBytes; a body it accepts re-frames to exactly the bytes
// it consumed; and no prefix of an accepted record is accepted.
func FuzzReadRecord(f *testing.F) {
	for _, body := range [][]byte{{0x01}, []byte("state batch"), bytes.Repeat([]byte{0xab}, 300)} {
		rec := AppendRecord(nil, body)
		f.Add(rec)
		f.Add(append(rec, AppendRecord(nil, []byte{0x02, 0x03})...))
		f.Add(rec[:len(rec)-1])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 1})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		body, err := ReadRecord(r)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > MaxRecordBytes {
			t.Fatalf("ReadRecord allocated %d bytes", grew)
		}
		if err != nil {
			if err != io.EOF && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		if !bytes.Equal(AppendRecord(nil, body), consumed) {
			t.Fatalf("accepted body re-frames to different bytes")
		}
		for i := range consumed {
			if _, err := ReadRecord(bytes.NewReader(consumed[:i])); err == nil {
				t.Fatalf("record cut to %d of %d bytes accepted", i, len(consumed))
			}
		}
	})
}
