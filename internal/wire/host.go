package wire

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/deliver"
	"repro/internal/gateway"
	"repro/internal/ledger"
	"repro/internal/orderer"
	"repro/internal/peer"
	"repro/internal/rwset"
	"repro/internal/service"
	"repro/internal/snapshot"
)

// This file is the served side of the RPC catalogue: Register* install
// handlers translating wire requests onto the in-process components.
// The method names and body structs (msg.go) are the protocol;
// docs/WIRE.md documents them.

// RegisterPeer serves a peer's endorse/deliver/private-data surface:
//
//	peer.endorse          unary   endorseRequest -> ledger.ProposalResponse
//	peer.subscribe        stream  subscribeRequest -> deliver events
//	peer.pvt              unary   pvtRequest -> rwset.CollPvtRWSet (null when absent)
//	peer.pvtpush          unary   rwset.TxPvtRWSet -> {}
//	peer.info             unary   {} -> infoResponse
//	peer.snapshot.meta    unary   {} -> snapshotMetaResponse
//	peer.snapshot.chunks  stream  snapshotChunksRequest -> chunk events
func RegisterPeer(s *Server, p *peer.Peer) {
	exports := &snapshotExports{}
	s.Handle("peer.endorse", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req endorseRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: peer.endorse: %w", err)
		}
		if req.Proposal == nil {
			return nil, fmt.Errorf("wire: peer.endorse: no proposal")
		}
		// The transient map travels beside the proposal (it is excluded
		// from proposal serialization) and is reattached for simulation.
		req.Proposal.Transient = req.Transient
		return p.Endorse(ctx, req.Proposal)
	})
	s.Handle("peer.subscribe", func(ctx context.Context, body Body, sink *Sink) (any, error) {
		var req subscribeRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: peer.subscribe: %w", err)
		}
		var stream service.Stream
		if req.Live {
			stream = p.SubscribeLive()
		} else {
			var err error
			stream, err = p.SubscribeFrom(req.From)
			if err != nil {
				return nil, err
			}
		}
		defer stream.Close()
		// The stream's buffer holds the replayed events right now.
		if err := sink.Ack(len(stream.Events())); err != nil {
			return nil, err
		}
		return nil, pumpEvents(ctx, stream, sink)
	})
	s.Handle("peer.pvt", func(_ context.Context, body Body, _ *Sink) (any, error) {
		var req pvtRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: peer.pvt: %w", err)
		}
		return p.ServePrivateData(req.TxID, req.Collection), nil
	})
	s.Handle("peer.pvtpush", func(_ context.Context, body Body, _ *Sink) (any, error) {
		var set rwset.TxPvtRWSet
		if err := body.Decode(&set); err != nil {
			return nil, fmt.Errorf("wire: peer.pvtpush: %w", err)
		}
		if set.TxID == "" {
			return nil, fmt.Errorf("wire: peer.pvtpush: no tx_id")
		}
		p.ReceivePrivateData(&set)
		return nil, nil
	})
	s.Handle("peer.info", func(_ context.Context, _ Body, _ *Sink) (any, error) {
		return &infoResponse{
			Name:      p.Name(),
			Org:       p.Org(),
			Channel:   p.ChannelName(),
			Height:    p.Ledger().Height(),
			StateHash: hex.EncodeToString(p.WorldState().StateHash()),
			Base:      p.Ledger().Base(),
		}, nil
	})
	s.Handle("peer.snapshot.meta", func(_ context.Context, _ Body, _ *Sink) (any, error) {
		id, dir, err := exports.fresh(p)
		if err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(peer.SnapshotManifestPath(dir))
		if err != nil {
			return nil, fmt.Errorf("wire: peer.snapshot.meta: %w", err)
		}
		return &snapshotMetaResponse{Export: id, Manifest: raw}, nil
	})
	s.Handle("peer.snapshot.chunks", func(ctx context.Context, body Body, sink *Sink) (any, error) {
		var req snapshotChunksRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: peer.snapshot.chunks: %w", err)
		}
		dir, ok := exports.lookup(req.Export)
		if !ok {
			return nil, fmt.Errorf("wire: peer.snapshot.chunks: export %d expired (re-fetch peer.snapshot.meta)", req.Export)
		}
		m, err := snapshot.ReadManifest(dir)
		if err != nil {
			return nil, err
		}
		if err := sink.Ack(len(m.Chunks)); err != nil {
			return nil, err
		}
		// One chunk file per frame, verbatim: the manifest's chunk hashes
		// verify at the installer, so the transport adds no trust.
		for i, ci := range m.Chunks {
			data, err := os.ReadFile(filepath.Join(dir, ci.Name))
			if err != nil {
				return nil, fmt.Errorf("wire: peer.snapshot.chunks: %w", err)
			}
			ev := event{Chunk: &SnapshotChunkEvent{Index: uint64(i), Name: ci.Name, Data: data}}
			if err := sink.SendBatch([]event{ev}); err != nil {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
		}
		return nil, nil
	})
}

// snapshotExports tracks the served peer's most recent snapshot export.
// A meta call replaces the previous export (and deletes its directory);
// chunk streams are keyed by the export ID so a replaced export fails
// typed instead of serving mixed artifacts.
type snapshotExports struct {
	mu   sync.Mutex
	next uint64
	id   uint64
	dir  string // artifact directory, inside a private temp parent
}

// fresh exports a new snapshot into a temp directory and makes it the
// current export, dropping the previous one.
func (se *snapshotExports) fresh(p *peer.Peer) (uint64, string, error) {
	parent, err := os.MkdirTemp("", "pdc-snapshot-export-")
	if err != nil {
		return 0, "", fmt.Errorf("wire: peer.snapshot.meta: %w", err)
	}
	dir := filepath.Join(parent, "snap")
	if _, err := p.ExportSnapshot(dir); err != nil {
		os.RemoveAll(parent)
		return 0, "", err
	}
	se.mu.Lock()
	if se.dir != "" {
		os.RemoveAll(filepath.Dir(se.dir))
	}
	se.next++
	se.id, se.dir = se.next, dir
	id := se.id
	se.mu.Unlock()
	return id, dir, nil
}

// lookup resolves an export ID to its artifact directory.
func (se *snapshotExports) lookup(id uint64) (string, bool) {
	se.mu.Lock()
	defer se.mu.Unlock()
	if id == 0 || id != se.id {
		return "", false
	}
	return se.dir, true
}

// RegisterOrderer serves the ordering surface:
//
//	order.submit     unary   orderRequest -> {}
//	order.blocks     stream  blocksRequest -> block events
func RegisterOrderer(s *Server, o *orderer.Service) {
	s.Handle("order.submit", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req orderRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: order.submit: %w", err)
		}
		tx, err := ledger.ParseTransaction(req.Tx)
		if err != nil {
			return nil, fmt.Errorf("wire: order.submit: %w", err)
		}
		return nil, o.Order(ctx, tx)
	})
	s.Handle("order.blocks", func(ctx context.Context, body Body, sink *Sink) (any, error) {
		var req blocksRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: order.blocks: %w", err)
		}
		// Backlog first, then live deliveries; the orderer's Subscribe
		// runs the handler under its delivery fan-out, so forward into
		// a channel to keep the sink writes on this goroutine. The
		// subscription is released when the stream ends, or the orderer
		// would clone and queue every future block for a consumer that
		// hung up (clients redial and re-subscribe on every drop).
		// SubscribeFrom fails with ErrCompacted when From predates the
		// retained window — the typed signal (mapped by codeCompacted)
		// that the caller needs a peer snapshot, not a replay.
		blocks := make(chan *ledger.Block, 64)
		backlog, sub, err := o.SubscribeFrom(req.From, func(b *ledger.Block) {
			select {
			case blocks <- b:
			case <-ctx.Done():
			}
		})
		if err != nil {
			return nil, err
		}
		defer sub.Close()
		if err := sink.Ack(len(backlog)); err != nil {
			return nil, err
		}
		next := req.From
		// Catch-up replay batches eventBatchMax blocks per frame
		// instead of one frame per block.
		batch := make([]event, 0, eventBatchMax)
		for _, b := range backlog {
			if b.Header.Number < next {
				continue
			}
			batch = append(batch, event{Block: blockEvent(b)})
			next = b.Header.Number + 1
			if len(batch) == eventBatchMax {
				if err := sink.SendBatch(batch); err != nil {
					return nil, err
				}
				batch = batch[:0]
			}
		}
		if err := sink.SendBatch(batch); err != nil {
			return nil, err
		}
		for {
			select {
			case b := <-blocks:
				if b.Header.Number < next {
					continue // replayed by the backlog already
				}
				batch = append(batch[:0], event{Block: blockEvent(b)})
				next = b.Header.Number + 1
				// Coalesce whatever else is already queued — the same
				// flush-on-idle discipline conn.writeLoop applies to
				// frames: batching never delays a lone block.
			drain:
				for len(batch) < eventBatchMax {
					select {
					case nb := <-blocks:
						if nb.Header.Number < next {
							continue
						}
						batch = append(batch, event{Block: blockEvent(nb)})
						next = nb.Header.Number + 1
					default:
						break drain
					}
				}
				if err := sink.SendBatch(batch); err != nil {
					return nil, err
				}
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
	})
}

// RegisterGateway serves the client-facing transaction API. SubmitAsync
// returns a handle the client polls with gw.status / releases with
// gw.close — commit waiting stays server-side, next to the deliver
// stream.
//
//	gw.evaluate     unary  service.InvokeRequest -> evaluateResponse
//	gw.submit       unary  service.InvokeRequest -> service.SubmitResult
//	gw.submitasync  unary  service.InvokeRequest -> submitAsyncResponse
//	gw.status       unary  handleRequest -> service.SubmitResult
//	gw.close        unary  handleRequest -> {}
func RegisterGateway(s *Server, gw *gateway.Gateway) {
	h := &handleTable{commits: make(map[uint64]service.Commit)}
	s.Handle("gw.evaluate", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req service.InvokeRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: gw.evaluate: %w", err)
		}
		payload, err := gw.Evaluate(ctx, &req)
		if err != nil {
			return nil, err
		}
		return &evaluateResponse{Payload: payload}, nil
	})
	s.Handle("gw.submit", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req service.InvokeRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: gw.submit: %w", err)
		}
		return gw.Submit(ctx, &req)
	})
	s.Handle("gw.submitasync", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req service.InvokeRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: gw.submitasync: %w", err)
		}
		commit, err := gw.SubmitAsync(ctx, &req)
		if err != nil {
			return nil, err
		}
		return &submitAsyncResponse{Handle: h.put(commit), TxID: commit.TxID()}, nil
	})
	s.Handle("gw.status", func(ctx context.Context, body Body, _ *Sink) (any, error) {
		var req handleRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: gw.status: %w", err)
		}
		commit, ok := h.get(req.Handle)
		if !ok {
			return nil, fmt.Errorf("wire: gw.status: unknown handle %d", req.Handle)
		}
		return commit.Status(ctx)
	})
	s.Handle("gw.close", func(_ context.Context, body Body, _ *Sink) (any, error) {
		var req handleRequest
		if err := body.Decode(&req); err != nil {
			return nil, fmt.Errorf("wire: gw.close: %w", err)
		}
		if commit, ok := h.take(req.Handle); ok {
			commit.Close()
		}
		return nil, nil
	})
}

// blockEvent wraps a block for the wire's event payload.
func blockEvent(b *ledger.Block) *deliver.BlockEvent {
	return &deliver.BlockEvent{Number: b.Header.Number, Block: b}
}

// encodeEvent maps a deliver event onto the wire's tagged-union form.
func encodeEvent(ev deliver.Event) event {
	switch e := ev.(type) {
	case *deliver.BlockEvent:
		return event{Block: e}
	case *deliver.TxStatusEvent:
		return event{Status: e}
	}
	return event{}
}

// pumpEvents forwards a service.Stream onto a sink until the stream
// ends or the caller cancels. After each blocking receive it coalesces
// whatever further events the stream already buffered into one
// multi-event frame — flush-on-idle: a backlogged subscriber catches up
// in eventBatchMax-sized frames, a lone event departs immediately.
func pumpEvents(ctx context.Context, stream service.Stream, sink *Sink) error {
	batch := make([]event, 0, eventBatchMax)
	for {
		select {
		case ev, ok := <-stream.Events():
			if !ok {
				return stream.Err()
			}
			batch = append(batch[:0], encodeEvent(ev))
		drain:
			for len(batch) < eventBatchMax {
				select {
				case ev2, ok2 := <-stream.Events():
					if !ok2 {
						// Flush what we have; the stream's end reason
						// travels in the terminal response.
						if err := sink.SendBatch(batch); err != nil {
							return err
						}
						return stream.Err()
					}
					batch = append(batch, encodeEvent(ev2))
				default:
					break drain
				}
			}
			if err := sink.SendBatch(batch); err != nil {
				return err
			}
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// handleTable tracks server-side commit handles for remote SubmitAsync
// callers.
type handleTable struct {
	mu      sync.Mutex
	next    uint64
	commits map[uint64]service.Commit
}

func (h *handleTable) put(c service.Commit) uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.next++
	h.commits[h.next] = c
	return h.next
}

func (h *handleTable) get(id uint64) (service.Commit, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.commits[id]
	return c, ok
}

func (h *handleTable) take(id uint64) (service.Commit, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c, ok := h.commits[id]
	delete(h.commits, id)
	return c, ok
}
