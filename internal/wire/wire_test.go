package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/identity"
	"repro/internal/ledger"
	"repro/internal/orderer"
	"repro/internal/rwset"
	"repro/internal/service"
)

// --- framing ---

// envelope returns v's binary encoding, the payload of a real frame.
func envelope(t testing.TB, v any) []byte {
	t.Helper()
	data, err := marshalBody(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{Type: ftRequest, Stream: 1, Payload: envelope(t, &request{Method: "peer.info"})},
		{Type: ftResponse, Stream: 1 << 40, Payload: envelope(t, &response{})},
		{Type: ftEvent, Stream: 7, Payload: bytes.Repeat([]byte("x"), 100_000)},
		{Type: ftCancel, Stream: 0, Payload: nil},
	}
	var buf bytes.Buffer
	for _, f := range cases {
		if err := writeFrame(&buf, f, DefaultMaxFrame); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range cases {
		got, err := readFrame(&buf, DefaultMaxFrame)
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if got.Type != want.Type || got.Stream != want.Stream || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d: got %+v want %+v", i, got, want)
		}
	}
}

func TestFrameCorruptionDetected(t *testing.T) {
	encoded := appendFrame(nil, frame{Type: ftRequest, Stream: 3, Payload: envelope(t, &request{Method: "x"})})
	// Flip every byte in turn; every corruption must surface as a typed
	// error (ErrCorrupt or ErrFrameTooLarge), never as a silent success
	// with altered content.
	for i := range encoded {
		mutated := append([]byte(nil), encoded...)
		mutated[i] ^= 0x01
		f, err := readFrame(bytes.NewReader(mutated), DefaultMaxFrame)
		if err == nil {
			t.Fatalf("flip byte %d: corruption not detected (frame %+v)", i, f)
		}
		// A flipped length byte can also shorten the stream (unexpected
		// EOF) — still a detected failure; everything else must carry
		// the typed sentinel.
		if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrFrameTooLarge) &&
			!errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("flip byte %d: untyped error %v", i, err)
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	if err := writeFrame(&bytes.Buffer{}, frame{Type: ftRequest, Payload: make([]byte, 100)}, 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("write oversized: got %v", err)
	}
	encoded := appendFrame(nil, frame{Type: ftRequest, Payload: make([]byte, 100)})
	if _, err := readFrame(bytes.NewReader(encoded), 10); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("read oversized: got %v", err)
	}
}

func TestFrameTruncated(t *testing.T) {
	encoded := appendFrame(nil, frame{Type: ftEvent, Stream: 9, Payload: envelope(t, &event{})})
	for n := 0; n < len(encoded); n++ {
		if _, err := readFrame(bytes.NewReader(encoded[:n]), DefaultMaxFrame); err == nil {
			t.Fatalf("truncation at %d/%d bytes not detected", n, len(encoded))
		}
	}
}

// TestRetiredVersionRejected: byte 2 is a protocol version with one
// accepted value; the retired JSON version 1 (and anything else) is
// typed corruption even under a valid checksum.
func TestRetiredVersionRejected(t *testing.T) {
	for _, ver := range []byte{0, 1, 3} {
		encoded := appendFrame(nil, frame{Type: ftRequest, Stream: 3, Payload: envelope(t, &request{Method: "x"})})
		encoded[2] = ver
		sum := crc32.Checksum(encoded[:len(encoded)-trailerSize], castagnoli)
		binary.BigEndian.PutUint32(encoded[len(encoded)-trailerSize:], sum)
		if _, err := readFrame(bytes.NewReader(encoded), DefaultMaxFrame); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("version %d: got %v, want ErrCorrupt", ver, err)
		}
	}
}

// --- client/server RPC ---

// startServer runs a server with the given handlers on a free port.
func startServer(t *testing.T, opts ServerOptions, handlers map[string]Handler) *Server {
	t.Helper()
	s, err := NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	for m, h := range handlers {
		s.Handle(m, h)
	}
	if err := s.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func dialT(t *testing.T, s *Server, opts ClientOptions) *Client {
	t.Helper()
	c, err := Dial(s.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// echoBody is the catalogue type the echo handlers bounce.
type echoBody = txIDRequest

func TestUnaryCall(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			if err := body.Decode(&in); err != nil {
				return nil, err
			}
			return &echoBody{TxID: in.TxID + "!"}, nil
		},
	})
	c := dialT(t, s, ClientOptions{})
	var out echoBody
	if err := c.Call(context.Background(), "echo", &echoBody{TxID: "hi"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.TxID != "hi!" {
		t.Fatalf("echo: got %q", out.TxID)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			body.Decode(&in)
			return &in, nil
		},
	})
	c := dialT(t, s, ClientOptions{})
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := fmt.Sprintf("msg-%d", i)
			var out echoBody
			if err := c.Call(context.Background(), "echo", &echoBody{TxID: want}, &out); err != nil {
				errs <- err
				return
			}
			if out.TxID != want {
				errs <- fmt.Errorf("call %d: got %q", i, out.TxID)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUnknownMethod(t *testing.T) {
	s := startServer(t, ServerOptions{}, nil)
	c := dialT(t, s, ClientOptions{})
	err := c.Call(context.Background(), "nope", nil, nil)
	if err == nil {
		t.Fatal("unknown method succeeded")
	}
}

func TestDeadlinePropagation(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"slow": func(ctx context.Context, _ Body, _ *Sink) (any, error) {
			// The server-side context must carry the client's deadline.
			if _, ok := ctx.Deadline(); !ok {
				return nil, fmt.Errorf("no deadline on server context")
			}
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-release:
				return nil, fmt.Errorf("handler outlived the deadline")
			}
		},
	})
	c := dialT(t, s, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	err := c.Call(ctx, "slow", nil, nil)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("got %v, want deadline exceeded", err)
	}
}

func TestCancelAbortsServerHandler(t *testing.T) {
	started := make(chan struct{}, 1)
	aborted := make(chan error, 1)
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"wait": func(ctx context.Context, _ Body, _ *Sink) (any, error) {
			started <- struct{}{}
			<-ctx.Done()
			aborted <- ctx.Err()
			return nil, ctx.Err()
		},
	})
	c := dialT(t, s, ClientOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- c.Call(ctx, "wait", nil, nil) }()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client: got %v", err)
	}
	select {
	case err := <-aborted:
		if err == nil {
			t.Fatal("server handler not canceled")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server handler never observed the cancellation")
	}
}

// --- streams ---

func TestStreamDeliversEventsInOrder(t *testing.T) {
	const events = 50
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"count": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			for i := 0; i < events; i++ {
				ev := event{Block: &deliver.BlockEvent{Number: uint64(i)}}
				if err := sink.Send(ev); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	})
	c := dialT(t, s, ClientOptions{})
	stream, err := c.Stream(context.Background(), "count", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	next := uint64(0)
	for ev := range stream.Events() {
		be, ok := ev.(*deliver.BlockEvent)
		if !ok {
			t.Fatalf("unexpected event %T", ev)
		}
		if be.Number != next {
			t.Fatalf("got block %d, want %d", be.Number, next)
		}
		next++
	}
	if next != events {
		t.Fatalf("received %d events, want %d", next, events)
	}
	if err := stream.Err(); err != nil {
		t.Fatalf("stream err: %v", err)
	}
}

func TestStreamErrorSurfacesInErr(t *testing.T) {
	boom := errors.New("boom")
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"fail": func(_ context.Context, _ Body, sink *Sink) (any, error) {
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			return nil, boom
		},
	})
	c := dialT(t, s, ClientOptions{})
	stream, err := c.Stream(context.Background(), "fail", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Close()
	for range stream.Events() {
	}
	if err := stream.Err(); err == nil || err.Error() == "" {
		t.Fatalf("stream err: %v, want the handler's error", err)
	}
}

func TestStreamRejectedBeforeAck(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"deny": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			return nil, errors.New("denied")
		},
	})
	c := dialT(t, s, ClientOptions{})
	if _, err := c.Stream(context.Background(), "deny", nil); err == nil {
		t.Fatal("stream open succeeded, want the handler's rejection")
	}
}

func TestStreamClientCloseCancelsHandler(t *testing.T) {
	canceled := make(chan struct{})
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"live": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			<-ctx.Done()
			close(canceled)
			return nil, ctx.Err()
		},
	})
	c := dialT(t, s, ClientOptions{})
	stream, err := c.Stream(context.Background(), "live", nil)
	if err != nil {
		t.Fatal(err)
	}
	stream.Close()
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("server stream handler not canceled by client Close")
	}
}

// TestConnDropCancelsStreamHandler: a client that hangs up without an
// ftCancel (process exit, network loss) must still abort its stream
// handlers, or an idle handler — and Server.Close behind it — waits
// forever.
func TestConnDropCancelsStreamHandler(t *testing.T) {
	canceled := make(chan struct{})
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"live": func(ctx context.Context, _ Body, sink *Sink) (any, error) {
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			<-ctx.Done()
			close(canceled)
			return nil, ctx.Err()
		},
	})
	c := dialT(t, s, ClientOptions{})
	if _, err := c.Stream(context.Background(), "live", nil); err != nil {
		t.Fatal(err)
	}
	c.cn.close(nil) // drop the socket; no ftCancel is sent
	select {
	case <-canceled:
	case <-time.After(5 * time.Second):
		t.Fatal("stream handler outlived its dropped connection")
	}
}

// --- error code round-trips ---

func TestSentinelErrorsSurviveTheWire(t *testing.T) {
	sentinelErrs := []error{
		gateway.ErrNoEndorsers,
		gateway.ErrEndorsementMismatch,
		gateway.ErrBadEndorserSignature,
		gateway.ErrCommitStatusUnavailable,
		orderer.ErrStopped,
		deliver.ErrSlowConsumer,
		context.DeadlineExceeded,
	}
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"err": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var req handleRequest
			body.Decode(&req)
			return nil, fmt.Errorf("wrapped: %w", sentinelErrs[req.Handle])
		},
	})
	c := dialT(t, s, ClientOptions{})
	for i, want := range sentinelErrs {
		err := c.Call(context.Background(), "err", &handleRequest{Handle: uint64(i)}, nil)
		if !errors.Is(err, want) {
			t.Errorf("sentinel %v: got %v", want, err)
		}
	}
}

func TestOverloadedErrorKeepsRetryHint(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"shed": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			return nil, &gateway.OverloadedError{RetryAfter: 750 * time.Millisecond}
		},
	})
	c := dialT(t, s, ClientOptions{})
	err := c.Call(context.Background(), "shed", nil, nil)
	var oe *gateway.OverloadedError
	if !errors.As(err, &oe) {
		t.Fatalf("got %v, want OverloadedError", err)
	}
	if oe.RetryAfter != 750*time.Millisecond {
		t.Fatalf("retry hint: got %v, want 750ms", oe.RetryAfter)
	}
}

// TestUncataloguedBodyIsTypedError: a body type absent from the
// catalogue fails the one call with a typed error — as the request on
// Client.Call, as the result in the server's reply — and never changes
// the frame's format or costs the connection.
func TestUncataloguedBodyIsTypedError(t *testing.T) {
	type unknown struct{ A int }
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			if err := body.Decode(&in); err != nil {
				return nil, err
			}
			return &in, nil
		},
		"unknown": func(context.Context, Body, *Sink) (any, error) { return &unknown{A: 7}, nil },
	})
	c := dialT(t, s, ClientOptions{})
	ctx := context.Background()
	if err := c.Call(ctx, "echo", &unknown{A: 7}, nil); !errors.Is(err, ErrNoEncoding) {
		t.Fatalf("uncatalogued request: got %v, want ErrNoEncoding", err)
	}
	if _, err := c.Stream(ctx, "echo", &unknown{A: 7}); !errors.Is(err, ErrNoEncoding) {
		t.Fatalf("uncatalogued stream request: got %v, want ErrNoEncoding", err)
	}
	err := c.Call(ctx, "unknown", nil, nil)
	if err == nil || !strings.Contains(err.Error(), ErrNoEncoding.Error()) {
		t.Fatalf("uncatalogued response: got %v, want the server's encode error", err)
	}
	var out echoBody
	if err := c.Call(ctx, "echo", &echoBody{TxID: "still here"}, &out); err != nil || out.TxID != "still here" {
		t.Fatalf("connection unusable after encode errors: %q, %v", out.TxID, err)
	}
}

// TestRPCCatalogueHasBinaryEncodings walks every method host.go
// registers and requires its request and response types to be in the
// codec catalogue, so a new RPC cannot ship with a body the wire would
// refuse at run time. A method missing from the table fails too: adding
// an RPC means adding its row.
func TestRPCCatalogueHasBinaryEncodings(t *testing.T) {
	bodies := map[string]struct{ req, resp any }{
		"peer.endorse":         {&endorseRequest{}, &ledger.ProposalResponse{}},
		"peer.subscribe":       {&subscribeRequest{}, &event{}},
		"peer.pvt":             {&pvtRequest{}, (*rwset.CollPvtRWSet)(nil)},
		"peer.pvtpush":         {&rwset.TxPvtRWSet{}, nil},
		"peer.info":            {nil, &infoResponse{}},
		"peer.snapshot.meta":   {nil, &snapshotMetaResponse{}},
		"peer.snapshot.chunks": {&snapshotChunksRequest{}, &event{}},
		"order.submit":         {&orderRequest{}, nil},
		"order.inpending":      {&txIDRequest{}, &inPendingResponse{}},
		"order.flushtx":        {&txIDRequest{}, nil},
		"order.blocks":         {&blocksRequest{}, &event{}},
		"gw.evaluate":          {&service.InvokeRequest{}, &evaluateResponse{}},
		"gw.submit":            {&service.InvokeRequest{}, &service.SubmitResult{}},
		"gw.submitasync":       {&service.InvokeRequest{}, &submitAsyncResponse{}},
		"gw.status":            {&handleRequest{}, &service.SubmitResult{}},
		"gw.close":             {&handleRequest{}, nil},
	}
	// Registration only captures the components; nil ones are never
	// called here.
	s, err := NewServer(ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	RegisterPeer(s, nil)
	RegisterOrderer(s, nil)
	RegisterGateway(s, nil)
	if len(s.handlers) != len(bodies) {
		t.Errorf("%d methods registered, %d in the table", len(s.handlers), len(bodies))
	}
	for method := range s.handlers {
		row, ok := bodies[method]
		if !ok {
			t.Errorf("%s: registered but not in the table", method)
			continue
		}
		for _, v := range []any{row.req, row.resp} {
			if v == nil {
				continue
			}
			data, err := marshalBody(v)
			if err != nil {
				t.Errorf("%s: %v", method, err)
				continue
			}
			if err := unmarshalBody(data, newZero(v)); err != nil {
				t.Errorf("%s: %T does not decode: %v", method, v, err)
			}
		}
	}
}

// --- connection lifecycle ---

func TestCallsFailAfterServerClose(t *testing.T) {
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			if err := body.Decode(&in); err != nil {
				return nil, err
			}
			return &in, nil
		},
	})
	c := dialT(t, s, ClientOptions{})
	if err := c.Call(context.Background(), "echo", &echoBody{TxID: "a"}, nil); err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The dead connection must fail calls, not hang them.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Call(ctx, "echo", &echoBody{TxID: "b"}, nil); err == nil {
		t.Fatal("call after server close succeeded")
	}
}

// --- TLS ---

func testIdentity(t *testing.T, subject string) *identity.Identity {
	t.Helper()
	ca, err := identity.NewCA("org1")
	if err != nil {
		t.Fatal(err)
	}
	id, err := ca.Issue(subject, identity.RolePeer)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func TestTLSPinnedKey(t *testing.T) {
	serverID := testIdentity(t, "peer0.org1")
	clientID := testIdentity(t, "client0.org1")
	s := startServer(t, ServerOptions{Identity: serverID}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			if err := body.Decode(&in); err != nil {
				return nil, err
			}
			return &in, nil
		},
	})
	c := dialT(t, s, ClientOptions{Identity: clientID, ServerKey: serverID.Cert.PubKey})
	var out echoBody
	if err := c.Call(context.Background(), "echo", &echoBody{TxID: "secure"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.TxID != "secure" {
		t.Fatalf("echo over TLS: got %q", out.TxID)
	}
}

func TestTLSWrongPinnedKeyRejected(t *testing.T) {
	serverID := testIdentity(t, "peer0.org1")
	imposter := testIdentity(t, "peer0.org1") // same name, different key
	clientID := testIdentity(t, "client0.org1")
	s := startServer(t, ServerOptions{Identity: serverID}, map[string]Handler{
		"echo": func(_ context.Context, body Body, _ *Sink) (any, error) {
			var in echoBody
			if err := body.Decode(&in); err != nil {
				return nil, err
			}
			return &in, nil
		},
	})
	c, err := Dial(s.Addr().String(), ClientOptions{Identity: clientID, ServerKey: imposter.Cert.PubKey})
	if err == nil {
		// The handshake may complete lazily; the first call must fail.
		defer c.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if cerr := c.Call(ctx, "echo", &echoBody{TxID: "x"}, nil); cerr == nil {
			t.Fatal("call over mis-pinned TLS succeeded")
		}
	}
}

func TestPlaintextClientAgainstTLSServerFails(t *testing.T) {
	serverID := testIdentity(t, "peer0.org1")
	s := startServer(t, ServerOptions{Identity: serverID}, nil)
	c, err := Dial(s.Addr().String(), ClientOptions{})
	if err != nil {
		return // dial-time failure is fine too
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if cerr := c.Call(ctx, "anything", nil, nil); cerr == nil {
		t.Fatal("plaintext call against TLS server succeeded")
	}
}

// --- review regressions ---

// TestEventStreamCloseRacesPush: finish closes the event channel while
// pushes are in flight; both must serialize on the stream's mutex or
// push panics on the closed channel.
func TestEventStreamCloseRacesPush(t *testing.T) {
	for i := 0; i < 200; i++ {
		es := newEventStream(nil, "test")
		done := make(chan struct{})
		go func() {
			defer close(done)
			for j := 0; j < 500; j++ {
				if !es.push(&deliver.BlockEvent{Number: uint64(j)}) {
					return
				}
			}
		}()
		es.finish(nil)
		<-done
	}
}

// TestOversizedResponseSurfacesError: a response the connection cannot
// carry must come back as an error, not leave Call blocked forever.
func TestOversizedResponseSurfacesError(t *testing.T) {
	big := make([]byte, 8<<10)
	for i := range big {
		big[i] = 'x'
	}
	s := startServer(t, ServerOptions{MaxFrame: 1024}, map[string]Handler{
		"big": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			return &echoBody{TxID: string(big)}, nil
		},
	})
	c := dialT(t, s, ClientOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := c.Call(ctx, "big", nil, &echoBody{})
	if err == nil {
		t.Fatal("oversized response succeeded")
	}
	if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("call hung until deadline instead of failing fast: %v", err)
	}
}

// TestStreamIDReuseDropsConnection: a client reusing a live stream ID
// would orphan the first handler's cancel entry; the server must drop
// the connection instead of serving it.
func TestStreamIDReuseDropsConnection(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"wait": func(ctx context.Context, _ Body, _ *Sink) (any, error) {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, nil
		},
	})
	nc, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	cn := newConn(nc, DefaultMaxFrame)
	payload := envelope(t, &request{Method: "wait"})
	for i := 0; i < 2; i++ {
		if err := cn.send(frame{Type: ftRequest, Stream: 7, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for {
		_, rerr := cn.read()
		if rerr == nil {
			continue
		}
		var nerr net.Error
		if errors.As(rerr, &nerr) && nerr.Timeout() {
			t.Fatal("server kept the connection after a live stream ID was reused")
		}
		return // dropped, as required
	}
}

// TestEncodeErrorPrecedenceDeterministic: an error chain matching more
// than one sentinel must always encode to the same code (the package
// sentinel, not the generic context error).
func TestEncodeErrorPrecedenceDeterministic(t *testing.T) {
	err := fmt.Errorf("stream: %w", errors.Join(deliver.ErrClosed, context.Canceled))
	for i := 0; i < 100; i++ {
		if we := encodeError(err); we.Code != codeDeliverClosed {
			t.Fatalf("iteration %d: code %q, want %q", i, we.Code, codeDeliverClosed)
		}
	}
}
