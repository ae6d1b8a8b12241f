// Package snapshot serializes a peer's full commit-point state into a
// portable, verifiable artifact: the statedb contents (live tuples and
// deletion tombstones), the BlockToLive purge schedule, the
// missing-private-data records, and the block-height watermark. A cold
// peer installs the artifact and catches up from the watermark via the
// normal delivery replay — an O(state) join instead of an O(chain)
// replay from genesis (docs/SNAPSHOT.md).
//
// On-disk layout: a directory holding MANIFEST.json plus one or more
// chunk files (chunk-000000.snap, chunk-000001.snap, ...). Each chunk
// begins with an 8-byte magic and carries records in the disk frame of
// storage.AppendRecord; the manifest records every chunk's size and
// SHA-256 plus a hash over the manifest itself, so any truncation, bit
// flip or file swap is detected before a single record is applied.
package snapshot

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/codec"
	"repro/internal/storage"
)

// Magic opens every chunk file.
const Magic = "PDCSNAP1"

// FormatVersion is bumped on any incompatible layout change. Version 2
// frames records with storage.AppendRecord.
const FormatVersion = 2

// ManifestName is the manifest file inside a snapshot directory.
const ManifestName = "MANIFEST.json"

// DefaultChunkBytes is the target chunk payload size: a chunk is sealed
// once its framed records reach this many bytes.
const DefaultChunkBytes = 1 << 20

// RecordKind discriminates snapshot records.
type RecordKind uint8

const (
	// KindState is a live world-state tuple (namespace, key, value,
	// version) — public, hashed-private and original-private namespaces
	// alike; the namespace prefix distinguishes them.
	KindState RecordKind = 1
	// KindTombstone is a deleted key's tombstone (namespace, key, last
	// live version). Tombstones participate in StateHash and keep the
	// version sequence continuous when a deleted key is re-created.
	KindTombstone RecordKind = 2
	// KindPurge is one pending BlockToLive purge (at, namespace, key).
	KindPurge RecordKind = 3
	// KindMissing is one missing-private-data record (txID, collection)
	// still awaiting reconciliation.
	KindMissing RecordKind = 4
)

// Record is one snapshot record; which fields are meaningful depends on
// Kind (see the kind constants).
type Record struct {
	Kind       RecordKind
	Namespace  string
	Key        string
	Value      []byte
	Version    uint64
	At         uint64
	TxID       string
	Collection string
}

// Counts tallies records by kind, cross-checked during verification.
type Counts struct {
	State      int `json:"state"`
	Tombstones int `json:"tombstones"`
	Purges     int `json:"purges"`
	Missing    int `json:"missing"`
}

// ChunkInfo describes one chunk file in the manifest.
type ChunkInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records"`
	Bytes   int64  `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// Manifest is the artifact's table of contents. SnapshotHash is the
// SHA-256 of the manifest JSON serialized with SnapshotHash set to the
// empty string, making the manifest self-authenticating: given a
// trusted snapshot hash (e.g. out of band from the exporting peer), the
// whole artifact verifies transitively.
type Manifest struct {
	Format        int         `json:"format"`
	Height        uint64      `json:"height"`
	LastBlockHash string      `json:"last_block_hash"`
	StateHash     string      `json:"state_hash"`
	Counts        Counts      `json:"counts"`
	Chunks        []ChunkInfo `json:"chunks"`
	SnapshotHash  string      `json:"snapshot_hash"`
}

// LastBlockHashBytes decodes the hex last-block hash; nil when empty
// (height-0 snapshot of an empty chain).
func (m *Manifest) LastBlockHashBytes() ([]byte, error) {
	if m.LastBlockHash == "" {
		return nil, nil
	}
	b, err := hex.DecodeString(m.LastBlockHash)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest last_block_hash: %v", storage.ErrCorrupt, err)
	}
	return b, nil
}

// StateHashBytes decodes the hex state hash.
func (m *Manifest) StateHashBytes() ([]byte, error) {
	b, err := hex.DecodeString(m.StateHash)
	if err != nil {
		return nil, fmt.Errorf("%w: manifest state_hash: %v", storage.ErrCorrupt, err)
	}
	return b, nil
}

// hash computes the manifest's self-hash: SHA-256 over the JSON with
// SnapshotHash blanked.
func (m *Manifest) hash() (string, error) {
	c := *m
	c.SnapshotHash = ""
	b, err := json.Marshal(&c)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// --- record encoding ---

// encodeRecord renders a record body: kind byte + kind-specific fields,
// byte strings uvarint length-prefixed.
func encodeRecord(r Record) ([]byte, error) {
	buf := []byte{byte(r.Kind)}
	switch r.Kind {
	case KindState:
		buf = codec.AppendString(buf, r.Namespace)
		buf = codec.AppendString(buf, r.Key)
		buf = codec.AppendBytes(buf, r.Value)
		buf = codec.AppendUvarint(buf, r.Version)
	case KindTombstone:
		buf = codec.AppendString(buf, r.Namespace)
		buf = codec.AppendString(buf, r.Key)
		buf = codec.AppendUvarint(buf, r.Version)
	case KindPurge:
		buf = codec.AppendUvarint(buf, r.At)
		buf = codec.AppendString(buf, r.Namespace)
		buf = codec.AppendString(buf, r.Key)
	case KindMissing:
		buf = codec.AppendString(buf, r.TxID)
		buf = codec.AppendString(buf, r.Collection)
	default:
		return nil, fmt.Errorf("snapshot: encode unknown record kind %d", r.Kind)
	}
	return buf, nil
}

// decodeRecord parses one record body. storage.ReadRecord never returns
// an empty body, so the kind byte is always there.
func decodeRecord(body []byte) (Record, error) {
	d := codec.NewReader(body)
	r := Record{Kind: RecordKind(d.Byte())}
	switch r.Kind {
	case KindState:
		r.Namespace = d.String()
		r.Key = d.String()
		r.Value = append([]byte(nil), d.Bytes()...)
		r.Version = d.Uvarint()
	case KindTombstone:
		r.Namespace = d.String()
		r.Key = d.String()
		r.Version = d.Uvarint()
	case KindPurge:
		r.At = d.Uvarint()
		r.Namespace = d.String()
		r.Key = d.String()
	case KindMissing:
		r.TxID = d.String()
		r.Collection = d.String()
	default:
		return r, fmt.Errorf("%w: unknown record kind %d", storage.ErrCorrupt, r.Kind)
	}
	if err := d.Done(); err != nil {
		return r, fmt.Errorf("%w: %v", storage.ErrCorrupt, err)
	}
	return r, nil
}

// --- writer ---

// Writer builds a snapshot artifact: records stream in via Add, chunks
// are sealed at the target size, and Finish writes the manifest. A
// Writer is single-goroutine.
type Writer struct {
	dir        string
	chunkBytes int
	buf        []byte // framed records of the open chunk
	records    int    // records in the open chunk
	chunks     []ChunkInfo
	counts     Counts
}

// NewWriter starts a snapshot in dir, creating it if needed. The
// directory must not already hold a manifest (no silent overwrite of a
// finished artifact).
func NewWriter(dir string) (*Writer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("snapshot: create %s: %w", dir, err)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err == nil {
		return nil, fmt.Errorf("snapshot: %s already holds a snapshot", dir)
	}
	return &Writer{dir: dir, chunkBytes: DefaultChunkBytes}, nil
}

// SetChunkBytes overrides the chunk payload target (tests use small
// values to force multi-chunk artifacts).
func (w *Writer) SetChunkBytes(n int) {
	if n > 0 {
		w.chunkBytes = n
	}
}

// Add appends one record, sealing the open chunk when it reaches the
// target size.
func (w *Writer) Add(r Record) error {
	body, err := encodeRecord(r)
	if err != nil {
		return err
	}
	w.buf = storage.AppendRecord(w.buf, body)
	w.records++
	switch r.Kind {
	case KindState:
		w.counts.State++
	case KindTombstone:
		w.counts.Tombstones++
	case KindPurge:
		w.counts.Purges++
	case KindMissing:
		w.counts.Missing++
	}
	if len(w.buf) >= w.chunkBytes {
		return w.sealChunk()
	}
	return nil
}

// sealChunk writes the buffered records as the next chunk file.
func (w *Writer) sealChunk() error {
	if w.records == 0 {
		return nil
	}
	name := fmt.Sprintf("chunk-%06d.snap", len(w.chunks))
	content := make([]byte, 0, len(Magic)+len(w.buf))
	content = append(content, Magic...)
	content = append(content, w.buf...)
	if err := os.WriteFile(filepath.Join(w.dir, name), content, 0o644); err != nil {
		return fmt.Errorf("snapshot: write %s: %w", name, err)
	}
	sum := sha256.Sum256(content)
	w.chunks = append(w.chunks, ChunkInfo{
		Name:    name,
		Records: w.records,
		Bytes:   int64(len(content)),
		SHA256:  hex.EncodeToString(sum[:]),
	})
	w.buf = w.buf[:0]
	w.records = 0
	return nil
}

// Finish seals the last chunk and writes the manifest. height is the
// block-height watermark the state reflects; lastBlockHash the hash of
// block height-1 (nil at height 0); stateHash the exporter's canonical
// statedb.StateHash at the cut.
func (w *Writer) Finish(height uint64, lastBlockHash, stateHash []byte) (*Manifest, error) {
	if err := w.sealChunk(); err != nil {
		return nil, err
	}
	m := &Manifest{
		Format:        FormatVersion,
		Height:        height,
		LastBlockHash: hex.EncodeToString(lastBlockHash),
		StateHash:     hex.EncodeToString(stateHash),
		Counts:        w.counts,
		Chunks:        w.chunks,
	}
	if m.Chunks == nil {
		m.Chunks = []ChunkInfo{}
	}
	h, err := m.hash()
	if err != nil {
		return nil, fmt.Errorf("snapshot: hash manifest: %w", err)
	}
	m.SnapshotHash = h
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("snapshot: marshal manifest: %w", err)
	}
	if err := os.WriteFile(filepath.Join(w.dir, ManifestName), append(b, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("snapshot: write manifest: %w", err)
	}
	return m, nil
}

// --- reader ---

// ReadManifest loads and authenticates the manifest of a snapshot
// directory: format version and self-hash are checked, chunk contents
// are not (Load does that).
func ReadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read manifest: %w", err)
	}
	return ParseManifest(b)
}

// ParseManifest authenticates raw manifest bytes (used by the wire
// transfer, which carries the manifest as an opaque byte blob so the
// hash holds end to end).
func ParseManifest(b []byte) (*Manifest, error) {
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%w: manifest: %v", storage.ErrCorrupt, err)
	}
	if m.Format != FormatVersion {
		return nil, fmt.Errorf("snapshot: unsupported format %d (want %d)", m.Format, FormatVersion)
	}
	want, err := m.hash()
	if err != nil {
		return nil, fmt.Errorf("snapshot: hash manifest: %w", err)
	}
	if m.SnapshotHash != want {
		return nil, fmt.Errorf("%w: manifest hash mismatch: recorded %s, computed %s",
			storage.ErrCorrupt, m.SnapshotHash, want)
	}
	return &m, nil
}

// decodeChunk verifies one chunk's content (magic, framing, CRCs,
// record count) against its manifest entry and appends its records.
func decodeChunk(content []byte, info ChunkInfo, out []Record) ([]Record, error) {
	fail := func(format string, args ...any) ([]Record, error) {
		return nil, fmt.Errorf("%w: chunk %s: %s", storage.ErrCorrupt, info.Name, fmt.Sprintf(format, args...))
	}
	if int64(len(content)) != info.Bytes {
		return fail("%d bytes, manifest says %d", len(content), info.Bytes)
	}
	sum := sha256.Sum256(content)
	if hex.EncodeToString(sum[:]) != info.SHA256 {
		return fail("sha256 mismatch")
	}
	if len(content) < len(Magic) || string(content[:len(Magic)]) != Magic {
		return fail("bad magic")
	}
	r := bytes.NewReader(content[len(Magic):])
	n := 0
	for ; ; n++ {
		body, err := storage.ReadRecord(r)
		if err == io.EOF {
			break
		}
		if err != nil {
			return fail("record %d: %v", n, err)
		}
		rec, err := decodeRecord(body)
		if err != nil {
			return fail("record %d: %v", n, err)
		}
		out = append(out, rec)
	}
	if n != info.Records {
		return fail("%d records, manifest says %d", n, info.Records)
	}
	return out, nil
}

// Load reads and fully verifies a snapshot directory: manifest
// self-hash, every chunk's size, SHA-256, magic, per-record CRC and the
// per-kind record counts. It returns the manifest and all records in
// artifact order, touching nothing outside dir — a failed Load leaves
// the directory as it found it, so a corrupt transfer can simply be
// re-fetched into the same place.
func Load(dir string) (*Manifest, []Record, error) {
	m, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	total := 0
	for _, c := range m.Chunks {
		total += c.Records
	}
	records := make([]Record, 0, total)
	for _, c := range m.Chunks {
		content, err := os.ReadFile(filepath.Join(dir, c.Name))
		if err != nil {
			return nil, nil, fmt.Errorf("%w: chunk %s: %v", storage.ErrCorrupt, c.Name, err)
		}
		records, err = decodeChunk(content, c, records)
		if err != nil {
			return nil, nil, err
		}
	}
	var counts Counts
	for _, r := range records {
		switch r.Kind {
		case KindState:
			counts.State++
		case KindTombstone:
			counts.Tombstones++
		case KindPurge:
			counts.Purges++
		case KindMissing:
			counts.Missing++
		}
	}
	if counts != m.Counts {
		return nil, nil, fmt.Errorf("%w: record counts %+v, manifest says %+v",
			storage.ErrCorrupt, counts, m.Counts)
	}
	return m, records, nil
}
