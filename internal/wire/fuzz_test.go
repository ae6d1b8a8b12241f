package wire

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/codec"
	"repro/internal/deliver"
)

// sampleEncodings returns the binary encoding of every value in
// codecSampleBodies, so the fuzzers start from realistic protocol
// traffic rather than random bytes.
func sampleEncodings(t testing.TB) [][]byte {
	var out [][]byte
	for _, v := range codecSampleBodies() {
		out = append(out, envelope(t, v))
	}
	return out
}

// FuzzWireFrame feeds arbitrary bytes to the frame reader. The protocol
// promise under test: a reader never panics, never allocates beyond
// maxFrame, and every rejection is a typed error (ErrCorrupt,
// ErrFrameTooLarge, or a short-read io error). Valid frames that decode
// must re-encode byte-identically.
func FuzzWireFrame(f *testing.F) {
	types := []byte{ftRequest, ftResponse, ftEvent, ftCancel}
	for i, payload := range sampleEncodings(f) {
		encoded := appendFrame(nil, frame{Type: types[i%len(types)], Stream: uint64(i), Payload: payload})
		f.Add(encoded)
		// Seed a truncation and a bit flip of each, so the interesting
		// failure paths are in the corpus from generation zero.
		f.Add(encoded[:len(encoded)/2])
		flipped := append([]byte(nil), encoded...)
		flipped[i%len(flipped)] ^= 0x40
		f.Add(flipped)
	}
	// A hand-built multi-event batch, so the fuzzer explores the ftEvents
	// frame type from generation zero.
	batch := envelope(f, &event{Block: &deliver.BlockEvent{Number: 9}})
	payload := codec.AppendSlice(nil, [][]byte{batch, batch}, codec.AppendBytes)
	f.Add(appendFrame(nil, frame{Type: ftEvents, Stream: 5, Payload: payload}))
	f.Add([]byte{})
	f.Add([]byte{magic0, magic1, 1, ftRequest}) // the retired JSON version
	f.Add([]byte{magic0, magic1, version, ftEvents})

	const maxFrame = 1 << 20 // keep fuzz allocations bounded
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := readFrame(bytes.NewReader(data), maxFrame)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFrameTooLarge) &&
				!errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("untyped error from readFrame: %v", err)
			}
			return
		}
		// A frame that validated must re-encode to exactly the bytes
		// consumed (header+payload+trailer) — framing is canonical.
		reencoded := appendFrame(nil, got)
		consumed := headerSize + len(got.Payload) + trailerSize
		if !bytes.Equal(reencoded, data[:consumed]) {
			t.Fatalf("re-encode mismatch:\n got %x\nwant %x", reencoded, data[:consumed])
		}
		// And reading the re-encoding must yield the same frame.
		again, err := readFrame(bytes.NewReader(reencoded), maxFrame)
		if err != nil {
			t.Fatalf("re-read of valid frame failed: %v", err)
		}
		if again.Type != got.Type || again.Stream != got.Stream || !bytes.Equal(again.Payload, got.Payload) {
			t.Fatalf("re-read mismatch: %+v vs %+v", again, got)
		}
	})
}

// FuzzCodecRoundTrip decodes fuzzed bytes as each catalogued type in
// turn. Whatever decodes must re-encode to exactly the input and decode
// again to an identical struct (checkRoundTrip) — the wire's substitute
// for a schema: one value, one encoding, nothing lost in either
// direction. Nothing may panic.
func FuzzCodecRoundTrip(f *testing.F) {
	samples := codecSampleBodies()
	for i, data := range sampleEncodings(f) {
		f.Add(uint8(i), data)
	}
	f.Add(uint8(0), []byte{})
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		checkRoundTrip(t, samples[int(kind)%len(samples)], data)
	})
}

// FuzzWireErrorRoundTrip checks the error-code mapping never loses the
// retry hint and never panics on arbitrary code/message pairs.
func FuzzWireErrorRoundTrip(f *testing.F) {
	f.Add("overloaded", "busy", int64(250))
	f.Add("no_endorsers", "", int64(0))
	f.Add("internal", "boom", int64(0))
	f.Add("unknown_code", "??", int64(-1))
	f.Add("", "", int64(1<<62))
	f.Fuzz(func(t *testing.T, code, msg string, retryMs int64) {
		we := &WireError{Code: code, Message: msg, RetryAfterMs: retryMs}
		err := decodeError(we)
		if err == nil {
			t.Fatalf("decodeError(%+v) = nil", we)
		}
		// Re-encoding a decoded error must preserve the code for every
		// catalogued code (unknown codes degrade to internal).
		if _, known := sentinelByCode[code]; known || code == codeOverloaded {
			back := encodeError(err)
			if back.Code != code {
				t.Fatalf("code %q round-tripped to %q", code, back.Code)
			}
		}
	})
}
