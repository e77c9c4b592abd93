package obs

// Pre-wired metric sets: each subsystem takes one of these structs
// instead of a whole registry, so the hot paths hold direct handles
// (one pointer dereference plus an atomic op per event) and the
// canonical metric names live in exactly one place — here.

// QueryMetrics is the query engine's instrument set.
type QueryMetrics struct {
	Queries     *Counter
	Errors      *Counter
	SlowQueries *Counter
	Counts      [NumCounts]*Counter // one per trace Count
	Seconds     *Histogram
	Stage       map[string]*Histogram // keyed by span name
	QueueWait   *Histogram            // worker-pool chunk queue wait
}

// NewQueryMetrics registers the query metric family.
func NewQueryMetrics(r *Registry) *QueryMetrics {
	stage := func(name string) *Histogram {
		return r.Histogram(`modelardb_query_stage_seconds{stage="`+name+`"}`,
			"Query stage latency by stage.", nil)
	}
	m := &QueryMetrics{
		Queries:     r.Counter("modelardb_queries_total", "Queries executed (including worker-side partials)."),
		Errors:      r.Counter("modelardb_query_errors_total", "Queries that returned an error."),
		SlowQueries: r.Counter("modelardb_slow_queries_total", "Queries logged by the slow-query log."),
		Seconds:     r.Histogram("modelardb_query_seconds", "End-to-end query latency.", nil),
		Stage: map[string]*Histogram{
			SpanParse:    stage(SpanParse),
			SpanPlan:     stage(SpanPlan),
			SpanScan:     stage(SpanScan),
			SpanFinalize: stage(SpanFinalize),
		},
		QueueWait: r.Histogram("modelardb_query_queue_wait_seconds",
			"Time a scan chunk waits in the worker-pool queue.", nil),
	}
	for c, d := range counts {
		m.Counts[c] = r.Counter("modelardb_query_"+d.key+"_total", d.help)
	}
	return m
}

// QueryObserver bundles what the engine reports into: metrics, the
// slow-query log, and an optional per-trace callback (tests, trace
// exporters). Any field may be nil.
type QueryObserver struct {
	Metrics *QueryMetrics
	SlowLog *SlowQueryLog
	OnTrace func(*Trace)
}

// Observe consumes one finished trace: it feeds the histograms and
// counters, gives the slow-query log its chance, and finally hands the
// trace to OnTrace. Safe on a nil observer or trace.
func (o *QueryObserver) Observe(t *Trace, err error) {
	if o == nil || t == nil {
		return
	}
	if m := o.Metrics; m != nil {
		m.Queries.Inc()
		if err != nil {
			m.Errors.Inc()
		}
		m.Seconds.Observe(t.Total().Seconds())
		for _, sp := range t.Spans() {
			if h := m.Stage[sp.Name]; h != nil {
				h.Observe(sp.Duration.Seconds())
			}
		}
		for c, ctr := range m.Counts {
			ctr.Add(t.Count(Count(c)))
		}
	}
	if o.SlowLog.MaybeLog(t, err) {
		if m := o.Metrics; m != nil {
			m.SlowQueries.Inc()
		}
	}
	if o.OnTrace != nil {
		o.OnTrace(t)
	}
}

// IngestMetrics is the ingestion path's instrument set. The per-point
// fast path only touches Points (one atomic add — the same cost as the
// counter it replaced); latency histograms observe at batch
// granularity so single-point appends stay free of clock reads.
type IngestMetrics struct {
	Points       *Counter
	Batches      *Counter
	BatchSeconds *Histogram
	BatchPoints  *Histogram
}

// NewIngestMetrics registers the ingestion metric family.
func NewIngestMetrics(r *Registry) *IngestMetrics {
	return &IngestMetrics{
		Points:       r.Counter("modelardb_ingested_points_total", "Data points ingested this session."),
		Batches:      r.Counter("modelardb_ingest_batches_total", "Per-group batch slices ingested."),
		BatchSeconds: r.Histogram("modelardb_ingest_batch_seconds", "Per-group batch ingest latency (including the WAL write).", nil),
		BatchPoints:  r.Histogram("modelardb_ingest_batch_points", "Points per ingested batch slice.", SizeBuckets),
	}
}

// WALMetrics is the write-ahead log's instrument set. Monotonic totals
// the WAL already tracks (fsync count, sizes) are exposed as
// CounterFunc/GaugeFunc by the DB instead of being double-counted
// here.
type WALMetrics struct {
	AppendSeconds *Histogram
	FsyncSeconds  *Histogram
	SyncWaits     *Counter // appenders that parked behind another append's fsync (group commit coalescing)
}

// NewWALMetrics registers the WAL metric family.
func NewWALMetrics(r *Registry) *WALMetrics {
	return &WALMetrics{
		AppendSeconds: r.Histogram("modelardb_wal_append_seconds", "WAL append latency (buffering plus the configured durability wait).", nil),
		FsyncSeconds:  r.Histogram("modelardb_wal_fsync_seconds", "WAL fsync latency.", nil),
		SyncWaits:     r.Counter("modelardb_wal_sync_waits_total", "Appends that waited on another append's fsync (group commit coalescing)."),
	}
}

// RPCServerMetrics is a cluster worker's instrument set.
type RPCServerMetrics struct {
	Calls        map[string]*Histogram // per-method handle latency
	InFlight     *Gauge
	Streams      *Gauge
	StreamChunks *Counter
	StreamBytes  *Counter
}

// NewRPCServerMetrics registers the worker-side RPC metric family for
// the given method names.
func NewRPCServerMetrics(r *Registry, methods []string) *RPCServerMetrics {
	m := &RPCServerMetrics{
		Calls:        make(map[string]*Histogram, len(methods)),
		InFlight:     r.Gauge("modelardb_rpc_inflight", "RPC calls currently being handled."),
		Streams:      r.Gauge("modelardb_rpc_streams_inflight", "Streaming scatter replies currently being produced."),
		StreamChunks: r.Counter("modelardb_rpc_stream_chunks_total", "Partial-result chunks streamed to masters."),
		StreamBytes:  r.Counter("modelardb_rpc_stream_bytes_total", "Encoded bytes streamed to masters."),
	}
	for _, name := range methods {
		m.Calls[name] = r.Histogram(`modelardb_rpc_server_seconds{method="`+name+`"}`,
			"Server-side RPC handle latency by method.", nil)
	}
	return m
}

// HTTPMetrics is the HTTP API front-end's instrument set, one handle
// set per endpoint so every handler reaches its instruments without a
// map lookup per label value at request time beyond one endpoint-name
// index.
type HTTPMetrics struct {
	Requests     map[string]*Counter   // requests accepted for handling
	Seconds      map[string]*Histogram // end-to-end handle latency
	Unauthorized map[string]*Counter   // rejected: missing or unknown bearer token
	Throttled    map[string]*Counter   // rejected: token over its rate limit
	Errors       map[string]*Counter   // requests that failed after admission
}

// NewHTTPMetrics registers the HTTP metric family for the given
// endpoint names.
func NewHTTPMetrics(r *Registry, endpoints []string) *HTTPMetrics {
	m := &HTTPMetrics{
		Requests:     make(map[string]*Counter, len(endpoints)),
		Seconds:      make(map[string]*Histogram, len(endpoints)),
		Unauthorized: make(map[string]*Counter, len(endpoints)),
		Throttled:    make(map[string]*Counter, len(endpoints)),
		Errors:       make(map[string]*Counter, len(endpoints)),
	}
	for _, name := range endpoints {
		m.Requests[name] = r.Counter(`modelardb_http_requests_total{endpoint="`+name+`"}`,
			"HTTP API requests admitted, by endpoint.")
		m.Seconds[name] = r.Histogram(`modelardb_http_request_seconds{endpoint="`+name+`"}`,
			"HTTP API request latency by endpoint.", nil)
		m.Unauthorized[name] = r.Counter(`modelardb_http_rejected_total{endpoint="`+name+`",reason="unauthorized"}`,
			"HTTP API requests rejected before handling, by endpoint and reason.")
		m.Throttled[name] = r.Counter(`modelardb_http_rejected_total{endpoint="`+name+`",reason="throttled"}`,
			"HTTP API requests rejected before handling, by endpoint and reason.")
		m.Errors[name] = r.Counter(`modelardb_http_errors_total{endpoint="`+name+`"}`,
			"HTTP API requests that failed after admission, by endpoint.")
	}
	return m
}

// RPCClientMetrics is a cluster master's instrument set.
type RPCClientMetrics struct {
	Calls      map[string]*Histogram // per-method call latency including retries
	Retries    *Counter
	Reconnects *Counter
	Errors     *Counter
}

// NewRPCClientMetrics registers the master-side RPC metric family for
// the given method names.
func NewRPCClientMetrics(r *Registry, methods []string) *RPCClientMetrics {
	m := &RPCClientMetrics{
		Calls:      make(map[string]*Histogram, len(methods)),
		Retries:    r.Counter("modelardb_rpc_client_retries_total", "RPC calls retried after a connection failure."),
		Reconnects: r.Counter("modelardb_rpc_client_reconnects_total", "Worker connections re-established."),
		Errors:     r.Counter("modelardb_rpc_client_errors_total", "RPC calls that ultimately failed."),
	}
	for _, name := range methods {
		m.Calls[name] = r.Histogram(`modelardb_rpc_client_seconds{method="`+name+`"}`,
			"Master-side RPC call latency by method, retries included.", nil)
	}
	return m
}
