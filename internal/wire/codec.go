package wire

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/codec"
)

// Codec names the wire payload encoding. There is exactly one; the type
// and its constant are retained only because benchmark/sut.go passes
// LaunchOptions{Codec: wire.CodecBinary} and that directory is frozen.
type Codec string

// CodecBinary is the positional binary encoding — the only value.
const CodecBinary Codec = "binary"

// ErrNoEncoding is returned when a body's type is absent from the
// catalogue in codec_types.go — a programming error surfaced to the
// caller, never a change of format.
var ErrNoEncoding = errors.New("wire: no binary encoding")

// ---------------------------------------------------------------------
// Pooled buffers.
//
// Frame and payload buffers recycle through size-classed sync.Pools.
// Ownership is explicit: whoever holds a buffer from getBuf must either
// hand it off (conn.send's queue hands encoded frames to writeLoop,
// which releases them after the socket write; the read loops hand
// payloads to whoever decodes them) or release it with putBuf. Buffers
// above maxPooledBuf (rare 32 MiB-class frames) are never pooled so a
// burst of huge blocks cannot pin memory.

var bufClasses = [...]int{4 << 10, 64 << 10, 1 << 20}

const maxPooledBuf = 2 << 20

var bufPools [len(bufClasses)]sync.Pool

// getBuf returns a zero-length buffer with capacity at least n.
func getBuf(n int) []byte {
	for i, size := range bufClasses {
		if n > size {
			continue
		}
		if v := bufPools[i].Get(); v != nil {
			stats.poolHits.Add(1)
			return (*v.(*[]byte))[:0]
		}
		stats.poolMisses.Add(1)
		return make([]byte, 0, size)
	}
	stats.poolMisses.Add(1)
	return make([]byte, 0, n)
}

// putBuf recycles a buffer into the class its capacity can serve.
// Accepts any slice (including nil and non-pooled ones); a buffer only
// enters a class if its capacity covers every getBuf of that class, so
// pooled buffers never regrow.
func putBuf(b []byte) {
	c := cap(b)
	if c < bufClasses[0] || c > maxPooledBuf {
		return
	}
	i := 0
	for i+1 < len(bufClasses) && c >= bufClasses[i+1] {
		i++
	}
	b = b[:0]
	bufPools[i].Put(&b)
}

// ---------------------------------------------------------------------
// Payload marshaling.

// marshalBody encodes a frame envelope or an RPC body; a nil body
// encodes as no bytes. The buffer may be pooled; release it with putBuf
// when done.
func marshalBody(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	start := time.Now()
	data, ok := binMarshal(v)
	observeEncode(start)
	if !ok {
		return nil, fmt.Errorf("%w for %T", ErrNoEncoding, v)
	}
	return data, nil
}

// unmarshalBody decodes a frame envelope or an RPC body.
func unmarshalBody(data []byte, v any) error {
	start := time.Now()
	defer func() { observeDecode(start) }()
	ok, err := binUnmarshal(data, v)
	if !ok {
		return fmt.Errorf("%w: no binary decoding for %T", codec.ErrMalformed, v)
	}
	return err
}
