package tcsim

import "tcsim/internal/tracestore"

// TraceStore is a bounded LRU of captured correct-path streams with
// singleflight capture (see internal/tracestore). Most callers use the
// process-wide store implicitly via RunWorkload; hosts embedding several
// isolated engines construct their own with NewTraceStore and run
// through RunWorkloadContextIn.
type TraceStore = tracestore.Store

// NewTraceStore returns an isolated trace store bounded to maxBytes of
// resident trace data (<= 0 selects the default bound).
func NewTraceStore(maxBytes int64) *TraceStore { return tracestore.NewStore(maxBytes) }

// TraceStoreStats is a snapshot of a trace store's counters: captures,
// replay hits, evictions, resident bytes/traces, cumulative capture wall
// time, on-disk load/save/reject counts, and trace CDN
// serve/fetch/reject counts.
type TraceStoreStats = tracestore.Stats

// TraceFetcher fetches one serialized trace from a cluster peer by
// program content hash (see SetTraceFetcher).
type TraceFetcher = tracestore.Fetcher

// TraceStats snapshots the process-wide trace store every workload run
// goes through. The serving layer exports these in /metrics; diffing
// two snapshots around a run tells whether it was served by capture or
// replay.
func TraceStats() TraceStoreStats { return tracestore.Shared().Stats() }

// SetTraceDir points the process-wide trace store at an on-disk trace
// directory (the -tracedir flag): captures persist there and warm
// restarts load them back instead of re-emulating. Files that fail
// validation — wrong magic, version, checksum, or a trace captured from
// a different program image — are rejected loudly and the run falls
// back to live capture; a stale trace can never replay silently. An
// empty dir disables persistence.
func SetTraceDir(dir string) { tracestore.Shared().SetDir(dir) }

// SetTraceRejectLog installs a callback invoked once per rejected
// on-disk trace file (nil discards). The daemon wires this into its
// structured logger.
func SetTraceRejectLog(fn func(file string, err error)) {
	tracestore.Shared().RejectLog = fn
}

// SetTraceFetcher installs a peer-fetch hook on the process-wide trace
// store: a capture that misses both memory and the trace directory asks
// the fetcher — in practice the cluster gateway's trace CDN — for the
// serialized stream before falling back to live emulation. Fetched
// bodies pass the same fail-closed validation as on-disk traces (magic,
// version, checksum, program content hash); a bad body is rejected
// loudly and the run captures live. Nil disables.
func SetTraceFetcher(fn TraceFetcher) { tracestore.Shared().SetFetcher(fn) }
