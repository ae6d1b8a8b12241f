package wire

import (
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Transport-wide counters and timings, shared by every connection in
// the process. Counters are atomics (the hot path must not take a lock
// per frame); the encode/decode histograms reuse metrics.Timings so
// they render like every other subsystem's.
// node.StartPeer registers MetricsSnapshot as a peer metrics source, so
// the wire_* counters surface through peer.Metrics() beside statedb and
// dedup stats.
type wireStats struct {
	framesIn  atomic.Uint64
	framesOut atomic.Uint64
	bytesIn   atomic.Uint64
	bytesOut  atomic.Uint64

	encodes     atomic.Uint64
	decodes     atomic.Uint64
	encodeNanos atomic.Uint64
	decodeNanos atomic.Uint64

	poolHits   atomic.Uint64
	poolMisses atomic.Uint64

	batchFrames   atomic.Uint64
	batchedEvents atomic.Uint64
}

var stats wireStats

// timings holds the wire_encode / wire_decode latency histograms.
var timings metrics.Timings

func observeEncode(start time.Time) {
	d := time.Since(start)
	stats.encodes.Add(1)
	stats.encodeNanos.Add(uint64(d))
	timings.Observe(metrics.WireEncode, d)
}

func observeDecode(start time.Time) {
	d := time.Since(start)
	stats.decodes.Add(1)
	stats.decodeNanos.Add(uint64(d))
	timings.Observe(metrics.WireDecode, d)
}

// MetricsSnapshot returns the process-wide wire transport counters.
func MetricsSnapshot() map[string]uint64 {
	return map[string]uint64{
		metrics.WireFramesIn:      stats.framesIn.Load(),
		metrics.WireFramesOut:     stats.framesOut.Load(),
		metrics.WireBytesIn:       stats.bytesIn.Load(),
		metrics.WireBytesOut:      stats.bytesOut.Load(),
		metrics.WireEncodes:       stats.encodes.Load(),
		metrics.WireDecodes:       stats.decodes.Load(),
		metrics.WireEncodeNanos:   stats.encodeNanos.Load(),
		metrics.WireDecodeNanos:   stats.decodeNanos.Load(),
		metrics.WirePoolHits:      stats.poolHits.Load(),
		metrics.WirePoolMisses:    stats.poolMisses.Load(),
		metrics.WireBatchFrames:   stats.batchFrames.Load(),
		metrics.WireBatchedEvents: stats.batchedEvents.Load(),
	}
}

// TimingsSnapshot returns the wire encode/decode latency histograms.
func TimingsSnapshot() map[string]metrics.HistogramSnapshot {
	return timings.Snapshot()
}
