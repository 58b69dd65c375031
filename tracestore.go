package tcsim

import "tcsim/internal/tracestore"

// TraceStore is a bounded LRU of captured correct-path streams with
// singleflight capture (see internal/tracestore). Every workload run
// names the store it captures into and replays from
// (RunWorkloadContextIn); runs that should share captures share one
// store. Configure it before its first run: SetDir points it at an
// on-disk trace directory (captures persist there, warm restarts load
// them back, and files failing validation are rejected and re-captured
// live), SetFetcher installs a cluster peer-fetch hook, and RejectLog
// receives one line per rejected trace.
type TraceStore = tracestore.Store

// NewTraceStore returns an isolated trace store bounded to maxBytes of
// resident trace data (<= 0 selects the default bound).
func NewTraceStore(maxBytes int64) *TraceStore { return tracestore.NewStore(maxBytes) }

// TraceStoreStats is a snapshot of a trace store's counters: captures,
// replay hits, evictions, resident bytes/traces, cumulative capture wall
// time, on-disk load/save/reject counts, and trace CDN
// serve/fetch/reject counts.
type TraceStoreStats = tracestore.Stats
