package wire

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/snapshot"
)

// writeTestArtifact builds a small multi-chunk snapshot artifact on
// disk and returns its directory.
func writeTestArtifact(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "snap")
	w, err := snapshot.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	w.SetChunkBytes(512)
	for i := 0; i < 40; i++ {
		err := w.Add(snapshot.Record{
			Kind:      snapshot.KindState,
			Namespace: "asset",
			Key:       fmt.Sprintf("key-%03d", i),
			Value:     []byte(fmt.Sprintf("value-%03d", i)),
			Version:   uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Finish(9, []byte("prevhash"), []byte("statehash")); err != nil {
		t.Fatal(err)
	}
	return dir
}

// serveArtifact registers peer.snapshot.meta / peer.snapshot.chunks
// handlers backed by a fixed on-disk artifact — the transport contract
// without a live peer behind it.
func serveArtifact(t *testing.T, dir string) *Server {
	t.Helper()
	const exportID = 7
	return startServer(t, ServerOptions{}, map[string]Handler{
		"peer.snapshot.meta": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			raw, err := os.ReadFile(filepath.Join(dir, snapshot.ManifestName))
			if err != nil {
				return nil, err
			}
			return &snapshotMetaResponse{Export: exportID, Manifest: raw}, nil
		},
		"peer.snapshot.chunks": func(ctx context.Context, body Body, sink *Sink) (any, error) {
			var req snapshotChunksRequest
			if err := body.Decode(&req); err != nil {
				return nil, err
			}
			if req.Export != exportID {
				return nil, fmt.Errorf("unknown export %d", req.Export)
			}
			m, err := snapshot.ReadManifest(dir)
			if err != nil {
				return nil, err
			}
			if err := sink.Ack(); err != nil {
				return nil, err
			}
			for i, ci := range m.Chunks {
				data, err := os.ReadFile(filepath.Join(dir, ci.Name))
				if err != nil {
					return nil, err
				}
				ev := event{Chunk: &SnapshotChunkEvent{Index: uint64(i), Name: ci.Name, Data: data}}
				if err := sink.SendBatch([]event{ev}); err != nil {
					return nil, err
				}
			}
			return nil, nil
		},
	})
}

// TestFetchSnapshotRoundTrip downloads an artifact over the wire and
// proves the fetched copy verifies and loads exactly like the original —
// same snapshot hash, same records.
func TestFetchSnapshotRoundTrip(t *testing.T) {
	src := writeTestArtifact(t)
	wantM, wantRecs, err := snapshot.Load(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(wantM.Chunks) < 2 {
		t.Fatalf("want a multi-chunk artifact, got %d chunks", len(wantM.Chunks))
	}
	s := serveArtifact(t, src)

	c := dialT(t, s, ClientOptions{})
	p := &PeerClient{c: c}
	dst := filepath.Join(t.TempDir(), "fetched")
	m, err := p.FetchSnapshot(context.Background(), dst)
	if err != nil {
		t.Fatal(err)
	}
	if m.SnapshotHash != wantM.SnapshotHash {
		t.Fatalf("manifest hash changed in flight: %s != %s", m.SnapshotHash, wantM.SnapshotHash)
	}
	gotM, gotRecs, err := snapshot.Load(dst)
	if err != nil {
		t.Fatalf("fetched artifact fails verification: %v", err)
	}
	if gotM.SnapshotHash != wantM.SnapshotHash || len(gotRecs) != len(wantRecs) {
		t.Fatalf("fetched artifact differs: hash %s records %d, want %s / %d",
			gotM.SnapshotHash, len(gotRecs), wantM.SnapshotHash, len(wantRecs))
	}
	// No .partial residue after a successful download.
	if _, err := os.Stat(dst + ".partial"); !os.IsNotExist(err) {
		t.Fatalf(".partial staging dir left behind (stat err %v)", err)
	}
}

// TestFetchSnapshotRefusesExistingDir: the destination must not exist —
// fetch never overwrites a prior artifact.
func TestFetchSnapshotRefusesExistingDir(t *testing.T) {
	src := writeTestArtifact(t)
	s := serveArtifact(t, src)
	c := dialT(t, s, ClientOptions{})
	p := &PeerClient{c: c}
	dst := t.TempDir() // exists
	if _, err := p.FetchSnapshot(context.Background(), dst); err == nil {
		t.Fatal("fetch into an existing directory succeeded")
	}
}

// TestFetchSnapshotExpiredExport: a stale export handle fails the chunk
// stream without leaving a partial directory behind.
func TestFetchSnapshotExpiredExport(t *testing.T) {
	src := writeTestArtifact(t)
	raw, err := os.ReadFile(filepath.Join(src, snapshot.ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	s := startServer(t, ServerOptions{}, map[string]Handler{
		"peer.snapshot.meta": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			return &snapshotMetaResponse{Export: 1, Manifest: raw}, nil
		},
		"peer.snapshot.chunks": func(_ context.Context, _ Body, _ *Sink) (any, error) {
			return nil, fmt.Errorf("export 1 expired")
		},
	})
	c := dialT(t, s, ClientOptions{})
	p := &PeerClient{c: c}
	dst := filepath.Join(t.TempDir(), "fetched")
	if _, err := p.FetchSnapshot(context.Background(), dst); err == nil {
		t.Fatal("fetch with expired export succeeded")
	}
	if _, err := os.Stat(dst); !os.IsNotExist(err) {
		t.Fatalf("failed fetch left %s behind", dst)
	}
	if _, err := os.Stat(dst + ".partial"); !os.IsNotExist(err) {
		t.Fatalf("failed fetch left staging dir behind")
	}
}
