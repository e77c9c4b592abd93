// Package modelardb is a model-based time series management system
// (TSMS) implementing Multi-Model Group Compression (MMGC) from the
// paper "Scalable Model-Based Management of Correlated Dimensional
// Time Series in ModelarDB" (Jensen, Pedersen, Thomsen; ICDE 2021).
//
// The system ingests groups of correlated time series with
// user-defined dimensions, compresses each group with an extensible
// set of models (PMC-Mean, Swing, Gorilla) within a user-defined error
// bound (possibly zero), stores the resulting segments in one
// log-structured store, on disk or in memory, and answers SQL
// aggregate queries directly on the models through a Segment View and
// a Data Point View.
//
// A minimal session:
//
//	db, err := modelardb.Open(modelardb.Config{
//		ErrorBound: modelardb.RelBound(1), // 1 %
//		Dimensions: []modelardb.Dimension{
//			{Name: "Location", Levels: []string{"Park", "Turbine"}},
//		},
//		Correlations: []string{"Location 1"}, // same park => correlated
//		Series: []modelardb.SeriesConfig{
//			{SI: 100, Members: map[string][]string{"Location": {"Aalborg", "T1"}}},
//			{SI: 100, Members: map[string][]string{"Location": {"Aalborg", "T2"}}},
//		},
//	})
//	...
//	db.Append(1, ts, 13.37)
//	db.Flush()
//	res, err := db.Query(ctx, "SELECT Turbine, AVG_S(*) FROM Segment GROUP BY Turbine")
package modelardb

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/durable"
	"modelardb/internal/models"
	"modelardb/internal/obs"
	"modelardb/internal/partition"
	"modelardb/internal/query"
	"modelardb/internal/storage"
	"modelardb/internal/wal"
)

// Re-exported core types so applications never import internal
// packages.
type (
	// Tid identifies a time series.
	Tid = core.Tid
	// Gid identifies a time series group.
	Gid = core.Gid
	// DataPoint is one timestamped value of one series.
	DataPoint = core.DataPoint
	// BatchError is the error of a partly kept AppendBatch.
	BatchError = core.BatchError
	// Dimension declares one hierarchy of a dimension schema.
	Dimension = dims.Dimension
	// ErrorBound bounds the reconstruction error of stored values.
	ErrorBound = models.ErrorBound
	// ModelType is the extension interface for user-defined models.
	ModelType = models.ModelType
	// Model is a fitting instance created by a ModelType.
	Model = models.Model
	// AggView decodes stored model parameters.
	AggView = models.AggView
	// MID identifies a model type.
	MID = models.MID
	// Result is a finished query result.
	Result = query.Result
	// Rows is a streaming cursor over a query's result (QueryRows).
	Rows = query.Rows
	// TextFormat selects how Rows.AppendRow renders a row as text.
	TextFormat = query.TextFormat
	// Segment is the stored unit of compressed data.
	Segment = core.Segment
	// Schema is a validated dimension schema.
	Schema = dims.Schema
)

// The text formats of Rows.AppendRow, Rows.AppendHeader and
// Rows.WriteText; see query.TextFormat.
const (
	TextCSV  = query.TextCSV
	TextTSV  = query.TextTSV
	TextJSON = query.TextJSON
)

// RelBound returns a relative (percent) error bound; 0 is lossless.
func RelBound(percent float64) ErrorBound { return models.RelBound(percent) }

// AbsBound returns an absolute error bound in value units.
func AbsBound(units float64) ErrorBound { return models.AbsBound(units) }

// SeriesConfig declares one time series before partitioning.
type SeriesConfig struct {
	// SI is the sampling interval in milliseconds.
	SI int64
	// Source optionally names the series origin (file, socket); the
	// source-based correlation primitives match against it.
	Source string
	// Members holds the dimension member paths, coarsest level first.
	Members map[string][]string
}

// Config configures a database.
type Config struct {
	// Path is the directory of the segment log; empty keeps the log in
	// memory, where nothing survives Close.
	Path string
	// ErrorBound is the user-defined error bound (Table 1 evaluates 0,
	// 1, 5 and 10 percent). The zero value is lossless.
	ErrorBound ErrorBound
	// LengthLimit caps the sampling intervals per model (default 50).
	LengthLimit int
	// SplitFraction triggers dynamic group splitting when a segment
	// compresses SplitFraction times worse than average (default 10).
	SplitFraction float64
	// DisableSplitting turns off dynamic group splitting (§4.2).
	DisableSplitting bool
	// BulkWriteSize is the segment store's write buffer (default 50000).
	// Queries flush it, so they always see every emitted segment.
	BulkWriteSize int
	// Dimensions is the dimension schema shared by all series.
	Dimensions []Dimension
	// Correlations are modelardb.correlation clauses (§4.1), OR'ed.
	Correlations []string
	// Series declares the time series; ignored when reopening an
	// existing on-disk database.
	Series []SeriesConfig
	// Models registers user-defined model types after the builtins.
	Models []ModelType
	// QueryParallelism is the number of segment-scan workers per query:
	// 0 uses all cores (GOMAXPROCS), 1 runs one worker, in the caller's
	// goroutine. Every worker count returns byte-identical results.
	QueryParallelism int
	// RPCTimeout bounds each individual cluster RPC issued by a master
	// (cluster.Dial) — Append, Flush, ExecutePartialStream and Snapshot
	// calls all fail with context.DeadlineExceeded when a worker does
	// not answer in time, and the worker-side scan is cancelled. 0 means
	// calls are bounded only by their caller's context (for Append, which
	// a master sends in the background, the master's own). It also
	// bounds how long a master's Close waits for the batches it has
	// sealed but no worker has acknowledged yet (2 s when 0).
	RPCTimeout time.Duration
	// RetryBudget bounds how long a cluster master keeps retrying a
	// call whose worker connection died, reconnecting with exponential
	// backoff and jitter between attempts. Retried batches carry their
	// original sequence numbers, so the worker deduplicates replays and
	// the retries stay exactly-once. 0 means a single immediate
	// reconnect-and-retry (enough for a worker restarting in place);
	// raise it to survive longer worker outages.
	RetryBudget time.Duration
	// WALDir enables the point-level write-ahead log: every
	// Append/AppendBatch is logged (and made durable per WALFsync)
	// before it reaches the in-memory model buffers, and Open replays
	// the un-checkpointed tail after a crash, so an acknowledged append
	// survives the loss of every buffered segment. Empty disables the
	// WAL, which is the pre-WAL behavior exactly. With the log on disk
	// (Path set) Flush checkpoints and truncates the WAL; with the log
	// in memory the WAL is a full journal that rebuilds the whole
	// database on Open.
	WALDir string
	// WALFsync selects the WAL durability policy: "always" (fsync per
	// append), "interval" (background fsync, the default — a crash
	// loses at most the last ~100ms of acknowledged points) or "never"
	// (flush on rotation and checkpoint only).
	WALFsync string
	// WALSegmentBytes rotates WAL segment files at this size; 0 selects
	// the default (16 MiB).
	WALSegmentBytes int64
	// WALSyncInterval is the background fsync cadence under
	// WALFsync "interval"; 0 selects the default (100ms). A shorter
	// interval narrows the crash-loss window, a longer one batches more
	// appends per fsync.
	WALSyncInterval time.Duration
	// StreamChunkBytes bounds one streamed partial-result chunk in the
	// cluster's scatter path: a worker's reply travels as a sequence of
	// chunks of roughly this size and the master merges each chunk as it
	// arrives, so master peak memory per worker is one chunk instead of
	// the whole reply. 0 selects the default (1 MiB).
	StreamChunkBytes int64
	// SlowQueryThreshold enables the slow-query log: every query whose
	// end-to-end latency reaches the threshold is logged with its
	// per-stage timings (parse/plan/scan/finalize), segment/chunk/row
	// counts and SQL text. 0 (the default) disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLogger receives slow-query lines; nil selects the
	// process-default logger.
	SlowQueryLogger *log.Logger
	// HTTPListen is the address of the daemon's HTTP endpoint (admin
	// surface plus the /api/v1 JSON API); empty disables it. The library
	// itself never listens — the field carries the config-file directive
	// (http_listen) to servers like modelardbd, which the -http flag
	// overrides.
	HTTPListen string
	// HTTPTokens are the bearer tokens accepted by the HTTP API. Empty
	// leaves the API unauthenticated (loopback/admin use); with at least
	// one token every /api/v1 request must carry a matching
	// "Authorization: Bearer <token>" header.
	HTTPTokens []HTTPToken
	// HTTPRateLimit is the default per-token request rate (requests per
	// second, token bucket with a one-second burst) for tokens without
	// their own rate — and for anonymous requests when no tokens are
	// configured. 0 disables rate limiting.
	HTTPRateLimit float64
}

// HTTPToken is one bearer token accepted by the HTTP API, with an
// optional per-token rate limit overriding Config.HTTPRateLimit.
type HTTPToken struct {
	// Token is the secret presented as "Authorization: Bearer <token>".
	Token string
	// Rate is the token's request budget in requests per second (token
	// bucket, burst of max(1, Rate)); 0 inherits Config.HTTPRateLimit.
	Rate float64
}

// DefaultConfig returns the paper's evaluated configuration (Table 1):
// lossless by default with the bound sweep done per experiment, model
// length limit 50, dynamic split fraction 10 and bulk write size
// 50 000. Dimensions, correlations and series must still be filled in.
func DefaultConfig() Config {
	return Config{
		ErrorBound:    RelBound(0),
		LengthLimit:   50,
		SplitFraction: 10,
		BulkWriteSize: 50000,
	}
}

// Catalog is the metadata of one set of dimensional time series: the
// dimension schema, the model registry and the series partitioned into
// groups (§3.1's metadata cache). It holds no data. A DB embeds one; a
// cluster master holds only a Catalog, from which it routes by group
// and plans and finalizes queries. A Catalog is immutable once built.
type Catalog struct {
	// cfg is the config the catalog was built from; a DB embedding the
	// catalog reads its node settings from it too.
	cfg    Config
	schema *dims.Schema
	meta   *core.MetadataCache
	reg    *models.Registry
	// series indexes the immutable per-series metadata by Tid-1 for the
	// per-point ingestion fast path.
	series []*core.TimeSeries
	// sources maps a series' Source name to its Tid (first declaration
	// wins on duplicates). External protocols that address series by
	// name — Prometheus remote write's __name__ label — resolve through
	// it.
	sources map[string]Tid
}

// DB is a ModelarDB instance: ingestion, storage and query processing
// for one set of dimensional time series. It is a node over its
// Catalog, whose accessors it carries.
type DB struct {
	*Catalog
	// fsys holds the store, its metadata and the WAL: the operating
	// system's, or a fault-injecting one in tests.
	fsys   durable.FS
	store  *storage.FileStore
	engine *query.Engine

	// shards holds one ingestion shard per group, indexed by Gid (nil
	// where no group has the index), so its length is one above the
	// largest Gid. It is built in Open and immutable afterwards, so the
	// ingestion hot path reads it without any lock; writers only take
	// their own group's shard lock and therefore never serialize across
	// groups. gids lists the groups in ascending order.
	shards []*groupShard
	gids   []Gid
	// lanes is the number of distinct lane keys AppendBatchSeq spreads
	// a batch's groups over: the WAL's shard count, so that one WAL file
	// is only ever written by one goroutine of a batch, or len(shards)
	// without a WAL.
	lanes int
	// batches recycles AppendBatchSeq's partition buffers.
	batches sync.Pool
	// wal, when non-nil, logs every point batch before it reaches a
	// GroupIngestor; WAL writes happen under the group's shard lock so
	// per-group log order equals ingestion order and replay reproduces
	// the pre-crash state exactly.
	wal    *wal.WAL
	closed atomic.Bool
	// metrics is the instance's observability registry: every subsystem
	// writes into it and every read surface (Stats, the daemon's STATS
	// command, the /metrics endpoint, the cluster Stats RPC) is a view
	// over it. ingest holds the ingestion hot path's direct handles —
	// the per-point cost is one atomic add, exactly what the counter it
	// replaced cost.
	metrics *obs.Registry
	ingest  *obs.IngestMetrics
	// flushMu serializes Flush with Close (never with Append), so a
	// Flush racing Close either completes before the store closes or
	// reports ErrClosed — never a write to a closed store.
	flushMu sync.Mutex
}

// groupShard is one group's ingestion shard: the group's ingestor plus
// the lock serializing writers of that group only. Queries never take
// shard locks — they read the segment store, which has its own
// synchronization.
type groupShard struct {
	mu sync.Mutex
	gi *core.GroupIngestor
	// applied is the group's dedup high-water mark: the highest
	// master-assigned batch sequence already ingested. AppendBatchSeq
	// silently skips batches at or below it, which is what makes
	// cluster retries and re-queues idempotent. With a WAL the mark is
	// durable (it rides in the records and checkpoints and is reseeded
	// on open); without one it protects the current process lifetime —
	// consistent, since an un-WALed restart loses the data too.
	applied uint64
	// walPoint is the single-point scratch batch for Append's WAL
	// write, reused under the shard lock to keep the hot path
	// allocation-free.
	walPoint [1]DataPoint
	// emitted holds the segments the group's models emitted since the
	// last drain, in emission order; drain hands them to the store. Only
	// the holder of mu touches it, so AppendBatchSeq can fit groups in
	// parallel and still insert their segments in group order.
	emitted []*core.Segment
}

// drain inserts the segments the group emitted since the last drain
// into the store, in emission order, and returns the first insert
// error. The caller holds sh.mu. A failed insert does not stop the
// rest: the store keeps what it buffered and writes it on a later
// flush.
func (db *DB) drain(sh *groupShard) error {
	var first error
	for _, s := range sh.emitted {
		if err := db.store.Insert(s); err != nil && first == nil {
			first = err
		}
	}
	clear(sh.emitted)
	sh.emitted = sh.emitted[:0]
	return first
}

// ErrClosed is returned by operations on a closed database.
var ErrClosed = errors.New("modelardb: database is closed")

// Open creates or reopens a database. An on-disk database that
// already has its metadata (timeseries.meta) builds its Catalog from
// that image; otherwise it partitions cfg.Series, as NewCatalog does.
func Open(cfg Config) (*DB, error) { return openFS(cfg, durable.OS{}) }

// openFS is Open over the file system fsys.
func openFS(cfg Config, fsys durable.FS) (*DB, error) {
	var persisted *storage.MetaFile
	if cfg.Path != "" {
		m, ok, err := storage.LoadMeta(fsys, cfg.Path)
		if err != nil {
			return nil, err
		}
		if ok {
			persisted = m
		}
	}
	cat, err := newCatalog(cfg, persisted)
	if err != nil {
		return nil, err
	}
	db := &DB{Catalog: cat, fsys: fsys, metrics: obs.NewRegistry()}
	db.ingest = obs.NewIngestMetrics(db.metrics)
	members := func(gid Gid) []Tid { return db.meta.TidsOf(gid) }
	store, err := storage.OpenFS(fsys, cfg.Path, members, cfg.BulkWriteSize)
	if err != nil {
		return nil, err
	}
	db.store = store
	if cfg.Path != "" && persisted == nil {
		if err := db.saveMeta(); err != nil {
			store.Close()
			return nil, err
		}
	}
	db.engine = query.NewEngine(db.store, db.meta, db.reg, db.schema)
	db.engine.SetParallelism(cfg.QueryParallelism)
	qo := &obs.QueryObserver{Metrics: obs.NewQueryMetrics(db.metrics)}
	if cfg.SlowQueryThreshold > 0 {
		qo.SlowLog = obs.NewSlowQueryLog(cfg.SlowQueryThreshold, cfg.SlowQueryLogger)
	}
	db.engine.SetObserver(qo)
	db.registerStateMetrics()
	db.initShards()
	if cfg.WALDir != "" {
		if err := db.openWAL(); err != nil {
			db.store.Close()
			return nil, err
		}
	}
	return db, nil
}

// NewCatalog validates cfg and partitions cfg.Series into groups
// (Algorithm 1), exactly as Open does for a database without persisted
// metadata, so every node and master built from one config agrees on
// every Tid and Gid.
func NewCatalog(cfg Config) (*Catalog, error) { return newCatalog(cfg, nil) }

// newCatalog validates cfg and builds its catalog: from the persisted
// image m, or, when m is nil, by partitioning cfg.Series.
func newCatalog(cfg Config, m *storage.MetaFile) (*Catalog, error) {
	if cfg.QueryParallelism < 0 {
		return nil, fmt.Errorf("modelardb: QueryParallelism %d is negative; use 0 for all cores or 1 for one worker, in the caller's goroutine", cfg.QueryParallelism)
	}
	if cfg.BulkWriteSize < 0 {
		return nil, fmt.Errorf("modelardb: BulkWriteSize %d is negative; use 0 for the default (%d) or a positive buffer size", cfg.BulkWriteSize, storage.DefaultBulkWriteSize)
	}
	if cfg.WALSegmentBytes < 0 {
		return nil, fmt.Errorf("modelardb: WALSegmentBytes %d is negative; use 0 for the default (%d) or a positive segment size", cfg.WALSegmentBytes, wal.DefaultSegmentBytes)
	}
	if cfg.WALSyncInterval < 0 {
		return nil, fmt.Errorf("modelardb: WALSyncInterval %v is negative; use 0 for the default (%v) or a positive interval", cfg.WALSyncInterval, wal.DefaultSyncInterval)
	}
	if cfg.StreamChunkBytes < 0 {
		return nil, fmt.Errorf("modelardb: StreamChunkBytes %d is negative; use 0 for the default (%d) or a positive chunk size", cfg.StreamChunkBytes, query.DefaultStreamChunkBytes)
	}
	if cfg.SlowQueryThreshold < 0 {
		return nil, fmt.Errorf("modelardb: SlowQueryThreshold %v is negative; use 0 to disable the slow-query log or a positive threshold", cfg.SlowQueryThreshold)
	}
	if cfg.HTTPRateLimit < 0 {
		return nil, fmt.Errorf("modelardb: HTTPRateLimit %g is negative; use 0 to disable rate limiting or a positive requests-per-second rate", cfg.HTTPRateLimit)
	}
	for _, tok := range cfg.HTTPTokens {
		if tok.Token == "" {
			return nil, errors.New("modelardb: HTTPTokens contains an empty token")
		}
		if tok.Rate < 0 {
			return nil, fmt.Errorf("modelardb: HTTP token rate %g is negative; use 0 to inherit HTTPRateLimit or a positive rate", tok.Rate)
		}
	}
	if _, err := wal.ParsePolicy(cfg.WALFsync); err != nil {
		return nil, fmt.Errorf("modelardb: %w", err)
	}
	c := &Catalog{cfg: cfg, meta: core.NewMetadataCache(), reg: models.NewBuiltinRegistry()}
	for _, mt := range cfg.Models {
		if err := c.reg.Register(mt); err != nil {
			return nil, fmt.Errorf("modelardb: %w", err)
		}
	}
	var err error
	if m != nil {
		err = c.restoreMeta(m)
	} else {
		err = c.initMeta()
	}
	if err != nil {
		return nil, err
	}
	c.series = c.meta.AllSeries()
	c.sources = make(map[string]Tid, len(c.series))
	for _, ts := range c.series {
		if ts.Source != "" {
			if _, dup := c.sources[ts.Source]; !dup {
				c.sources[ts.Source] = ts.Tid
			}
		}
	}
	return c, nil
}

// Planner returns a query engine over the catalog with no store: it
// compiles and validates queries, checks partial results against them
// and finalizes merged partials, as a cluster master does, and every
// scan it is asked for fails with query.ErrNoStore.
func (c *Catalog) Planner() *query.Engine {
	e := query.NewEngine(nil, c.meta, c.reg, c.schema)
	e.SetParallelism(c.cfg.QueryParallelism)
	return e
}

// registerStateMetrics exposes state the database already tracks —
// catalog sizes, store volume, the segment log's reads — as
// function metrics read at collection time, so they are never
// double-counted against their authoritative sources.
func (db *DB) registerStateMetrics() {
	r := db.metrics
	r.GaugeFunc(MetricSeries, "Registered time series.",
		func() float64 { return float64(db.meta.NumSeries()) })
	r.GaugeFunc(MetricGroups, "Time series groups.",
		func() float64 { return float64(len(db.meta.Groups())) })
	r.GaugeFunc(MetricSegments, "Stored segments.", func() float64 {
		n, err := db.store.Count()
		if err != nil {
			return 0
		}
		return float64(n)
	})
	r.GaugeFunc(MetricStorageBytes, "Bytes of the segment log's blocks, without their 8-byte frame headers; a buffered segment counts as a block of one.", func() float64 {
		n, err := db.store.SizeBytes()
		if err != nil {
			return 0
		}
		return float64(n)
	})
	r.CounterFunc(MetricStoreReads, "Log reads issued by scans of the segment store; one read fetches a run of adjacent segments.", func() float64 {
		reads, _ := db.store.ReadStats()
		return float64(reads)
	})
	r.CounterFunc(MetricStoreReadBytes, "Bytes fetched by those log reads.", func() float64 {
		_, bytes := db.store.ReadStats()
		return float64(bytes)
	})
}

// openWAL opens the write-ahead log, reconciles the segment store with
// the last checkpoint and replays the logged tail through the normal
// ingestion path, restoring the in-memory buffers a crash lost.
func (db *DB) openWAL() error {
	policy, _ := wal.ParsePolicy(db.cfg.WALFsync) // validated in Open
	w, err := wal.OpenFS(db.fsys, wal.Options{
		Dir:          db.cfg.WALDir,
		Sync:         policy,
		SegmentBytes: db.cfg.WALSegmentBytes,
		SyncInterval: db.cfg.WALSyncInterval,
		Metrics:      obs.NewWALMetrics(db.metrics),
	})
	if err != nil {
		return fmt.Errorf("modelardb: %w", err)
	}
	if db.cfg.Path != "" {
		if off, ok := w.Checkpointed(); ok {
			// Segments flushed after the last checkpoint hold points the
			// WAL tail still carries; drop them so replay cannot
			// double-ingest. (A clean Close checkpoints at the log's end,
			// making this a no-op.)
			if err := db.store.TruncateLog(off); err != nil {
				w.Close()
				return err
			}
		} else {
			// First open with a WAL on this store: anchor the baseline at
			// the store's current durable end, so the invariant "records
			// below the checkpoint offset carry only checkpointed points"
			// holds from the first record on.
			if err := db.store.Sync(); err != nil {
				w.Close()
				return err
			}
			if err := w.Checkpoint(nil, db.store.LogOffset()); err != nil {
				w.Close()
				return err
			}
		}
	}
	if err := db.replayWAL(w); err != nil {
		w.Close()
		return fmt.Errorf("modelardb: wal replay: %w", err)
	}
	// Seed the per-group dedup marks from the WAL's applied table
	// (checkpoint plus logged records), so a batch the pre-crash process
	// already ingested is still recognized as a duplicate after restart.
	for gid, applied := range w.AppliedSeqs() {
		if sh := db.shard(gid); sh != nil {
			sh.applied = applied
		}
	}
	db.wal = w
	db.lanes = w.Shards()
	// Monotonic totals the WAL already maintains are exposed as function
	// metrics; the histograms passed through Options above cover the
	// latency side.
	db.metrics.CounterFunc(MetricWALFsyncs, "WAL fsyncs issued (group commit coalesces appends onto shared fsyncs).",
		func() float64 { return float64(w.FsyncCount()) })
	db.metrics.GaugeFunc(MetricWALBytes, "WAL current on-disk volume.",
		func() float64 { return float64(w.SizeBytes()) })
	db.metrics.GaugeFunc(MetricWALPending, "WAL record bytes appended since the last checkpoint (write backpressure signal).",
		func() float64 { return float64(w.BytesSinceCheckpoint()) })
	return nil
}

// replayWAL re-ingests every logged record above the last checkpoint.
// Replay is deterministic: records are applied in per-group log order
// through the same GroupIngestor path as the original appends, so a
// point that was rejected then (out of order, misaligned, unknown) is
// rejected identically now — it is skipped along with the rest of its
// record, matching the original append's early return.
func (db *DB) replayWAL(w *wal.WAL) error {
	return w.Replay(func(gid core.Gid, seq, _ uint64, pts []core.DataPoint) error {
		sh := db.shard(gid)
		if sh == nil {
			return nil // group no longer exists; nothing to restore
		}
		n := 0
		var err error
		for _, p := range pts {
			if p.Tid < 1 || int(p.Tid) > len(db.series) {
				break
			}
			series := db.series[p.Tid-1]
			if err = sh.gi.Append(p.Tid, p.TS, p.Value*series.Scaling); err != nil {
				if errors.Is(err, core.ErrOutOfOrder) || errors.Is(err, core.ErrMisaligned) || errors.Is(err, core.ErrUnknownTid) {
					err = nil
				}
				break
			}
			n++
		}
		db.ingest.Points.Add(int64(n))
		return cmp.Or(err, db.drain(sh))
	})
}

// initShards builds the immutable per-group shard slice: every group
// is known after partitioning, so ingestion never mutates the slice
// and reads it lock-free. A group's models emit into its shard's
// emitted list; drain moves them to the store.
func (db *DB) initShards() {
	db.gids = db.meta.Groups() // ascending
	var top Gid
	if len(db.gids) > 0 {
		top = db.gids[len(db.gids)-1]
	}
	db.shards = make([]*groupShard, top+1)
	db.lanes = len(db.shards)
	for _, gid := range db.gids {
		sh := &groupShard{}
		cfg := core.IngestorConfig{
			Generator: core.GeneratorConfig{
				Registry:    db.reg,
				Bound:       db.cfg.ErrorBound,
				LengthLimit: db.cfg.LengthLimit,
				OnSegment: func(s *core.Segment) error {
					sh.emitted = append(sh.emitted, s)
					return nil
				},
			},
			SplitFraction:    db.cfg.SplitFraction,
			DisableSplitting: db.cfg.DisableSplitting,
		}
		sh.gi = core.NewGroupIngestor(cfg, gid, db.siOf(gid), db.meta.TidsOf(gid))
		db.shards[gid] = sh
	}
	db.batches.New = func() any { return &batchSplit{count: make([]int, len(db.shards))} }
}

// shard returns group gid's shard, or nil for a Gid no group has; the
// WAL can name such groups after the configuration changed.
func (db *DB) shard(gid Gid) *groupShard {
	if int(gid) >= len(db.shards) {
		return nil
	}
	return db.shards[gid]
}

// initMeta validates the schema, registers the series, runs the
// Partitioner (Algorithm 1) and assigns groups.
func (c *Catalog) initMeta() error {
	schema, err := dims.NewSchema(c.cfg.Dimensions...)
	if err != nil {
		return err
	}
	c.schema = schema
	var series []*core.TimeSeries
	for i, sc := range c.cfg.Series {
		ts := &core.TimeSeries{
			Tid:     Tid(i + 1),
			SI:      sc.SI,
			Source:  sc.Source,
			Members: sc.Members,
		}
		if err := c.meta.Add(ts); err != nil {
			return err
		}
		series = append(series, ts)
	}
	clauses, err := partition.ParseAll(schema, c.cfg.Correlations...)
	if err != nil {
		return err
	}
	p := partition.New(schema, clauses...)
	groups, err := p.Group(series)
	if err != nil {
		return err
	}
	scalings := p.Scalings(series)
	for _, ts := range series {
		f := scalings[ts.Tid]
		if f <= 0 {
			return fmt.Errorf("modelardb: series %d has non-positive scaling %g", ts.Tid, f)
		}
		ts.Scaling = float32(f)
	}
	for gi, tids := range groups {
		for _, tid := range tids {
			if err := c.meta.SetGroup(tid, Gid(gi+1)); err != nil {
				return err
			}
		}
	}
	return nil
}

// restoreMeta rebuilds schema and metadata from a persisted image.
func (c *Catalog) restoreMeta(m *storage.MetaFile) error {
	schema, err := dims.NewSchema(m.Dimensions...)
	if err != nil {
		return err
	}
	c.schema = schema
	for _, sm := range m.Series {
		ts := &core.TimeSeries{
			Tid: sm.Tid, SI: sm.SI, Scaling: sm.Scaling,
			Source: sm.Source, Members: sm.Members,
		}
		if err := c.meta.Add(ts); err != nil {
			return err
		}
	}
	for _, sm := range m.Series {
		if err := c.meta.SetGroup(sm.Tid, sm.Gid); err != nil {
			return err
		}
	}
	return nil
}

func (db *DB) saveMeta() error {
	m := &storage.MetaFile{
		Dimensions:   db.cfg.Dimensions,
		Correlations: db.cfg.Correlations,
	}
	for _, ts := range db.meta.AllSeries() {
		m.Series = append(m.Series, storage.SeriesMeta{
			Tid: ts.Tid, SI: ts.SI, Gid: ts.Gid, Scaling: ts.Scaling,
			Source: ts.Source, Members: ts.Members,
		})
	}
	return storage.SaveMeta(db.fsys, db.cfg.Path, m)
}

func (db *DB) siOf(gid Gid) int64 {
	tids := db.meta.TidsOf(gid)
	ts, _ := db.meta.Series(tids[0])
	return ts.SI
}

// Append ingests one data point. Points of one group must arrive in
// non-decreasing tick order; the value is multiplied by the series'
// scaling constant before model fitting (§3.3). Only writers of the
// same group serialize — Append on different groups runs in parallel.
func (db *DB) Append(tid Tid, ts int64, value float32) error {
	if tid < 1 || int(tid) > len(db.series) {
		return fmt.Errorf("%w: %d", core.ErrUnknownTid, tid)
	}
	series := db.series[tid-1]
	sh := db.shards[series.Gid]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// Checked under the shard lock: Close marks the database closed
	// before flushing the shards, so an append seeing closed == false
	// here is always flushed and persisted by Close.
	if db.closed.Load() {
		return ErrClosed
	}
	if db.wal != nil {
		// Log before touching the model buffers: an acknowledged point
		// is on the WAL first, so a crash between here and the next
		// checkpoint replays it. The raw value is logged; scaling is
		// re-applied on replay.
		sh.walPoint[0] = DataPoint{Tid: tid, TS: ts, Value: value}
		if _, err := db.wal.Append(series.Gid, 0, sh.walPoint[:]); err != nil {
			return err
		}
	}
	if err := sh.gi.Append(tid, ts, value*series.Scaling); err != nil {
		return cmp.Or(err, db.drain(sh))
	}
	// One atomic add: the single-point hot path carries no clock reads —
	// latency histograms observe at batch and WAL granularity instead.
	db.ingest.Points.Inc()
	return db.drain(sh)
}

// AppendPoint ingests one DataPoint.
func (db *DB) AppendPoint(p DataPoint) error {
	return db.Append(p.Tid, p.TS, p.Value)
}

// AppendBatch ingests a batch of data points, taking each group's
// shard lock once per batch instead of once per point. Points are
// partitioned by group with their relative order preserved, so the
// per-group tick-order contract of Append carries over unchanged. The
// batch's groups are fitted in parallel, one goroutine per core, and
// concurrent AppendBatch calls touching disjoint groups do not
// serialize at all; the segment log and the WAL are nevertheless
// byte-identical to a one-group-at-a-time ingest.
//
// A batch holding an unknown Tid is rejected before any point is
// ingested. Otherwise every group is attempted: a group that fails
// (an out-of-order point, say) keeps the points before the failing
// one, the other groups ingest theirs, and the first error in group
// order (the order of the groups' first points in the batch) is
// returned. Cancelling ctx stops each goroutine between groups and
// returns ctx.Err(); like a failed Append, the points of groups
// already processed remain ingested. A failed batch that kept any of
// its points returns the first error inside a *BatchError, which
// counts them.
func (db *DB) AppendBatch(ctx context.Context, points []DataPoint) error {
	return db.AppendBatchSeq(ctx, points, nil)
}

// AppendBatchSeq is AppendBatch with per-group batch sequence numbers
// for exactly-once delivery: seqs maps a group to the master-assigned
// monotonic sequence of this batch's slice for that group. A slice
// whose sequence is at or below the group's applied high-water mark
// has been ingested before (a retry, a re-queue replay, a duplicated
// frame) and is silently skipped; a higher sequence advances the mark.
// Groups absent from seqs (or mapped to 0) bypass deduplication — that
// is the plain AppendBatch behavior. Errors and cancellation follow
// AppendBatch: every group is attempted and the first error in group
// order is returned.
//
// The mark advances even when a point of the slice is rejected
// (out-of-order, misaligned): rejection is deterministic, so
// re-applying the slice would reject the same point again and
// duplicate the points before it.
//
// The groups are spread over at most GOMAXPROCS lanes, one goroutine
// each, the caller's running the first. A group's lane is keyed by its
// WAL shard, so each WAL file is written by one goroutine, in group
// order. Fitted segments are held in their shard and drained into the
// store in group order once every lane is done.
func (db *DB) AppendBatchSeq(ctx context.Context, points []DataPoint, seqs map[Gid]uint64) error {
	if len(points) == 0 {
		return nil
	}
	b := db.batches.Get().(*batchSplit)
	defer db.batches.Put(b)
	if err := db.partition(b, points); err != nil {
		return err
	}
	var wg sync.WaitGroup
	for lane := 1; lane < b.nlanes; lane++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			db.appendLane(ctx, b, lane, seqs)
		}()
	}
	db.appendLane(ctx, b, 0, seqs)
	wg.Wait()
	var first error
	ingested := 0
	for i, gid := range b.order {
		sh := db.shards[gid]
		sh.mu.Lock()
		err := db.drain(sh)
		sh.mu.Unlock()
		first = cmp.Or(first, b.errs[i], err)
		ingested += b.kept[i]
	}
	clear(b.errs)
	clear(b.kept)
	if first != nil && ingested > 0 {
		return &BatchError{Ingested: ingested, Err: first}
	}
	return first
}

// batchSplit is AppendBatchSeq's partition of one batch, recycled
// through DB.batches.
type batchSplit struct {
	// count is indexed by Gid: a group's point count, then its scatter
	// cursor. It is all zeros between batches.
	count []int
	// order lists the batch's groups by their first point; group
	// order[i] has the points buf[start[i]:start[i+1]], runs in lane
	// lane[i] of nlanes, fails with errs[i] and keeps kept[i] of its
	// points.
	order  []Gid
	start  []int
	lane   []int
	nlanes int
	errs   []error
	kept   []int
	buf    []DataPoint
	// laneOf maps a lane key to its lane, or -1 before a group uses it.
	laneOf []int
}

// partition splits points by group with a counting sort. The first
// pass validates every Tid and counts each group's points, noting the
// groups in first-arrival order; the second copies the points into
// b.buf, each group's contiguous and in arrival order. It then assigns
// the groups to lanes.
func (db *DB) partition(b *batchSplit, points []DataPoint) error {
	b.order = b.order[:0]
	for _, p := range points {
		if p.Tid < 1 || int(p.Tid) > len(db.series) {
			for _, gid := range b.order {
				b.count[gid] = 0
			}
			return fmt.Errorf("%w: %d", core.ErrUnknownTid, p.Tid)
		}
		gid := db.series[p.Tid-1].Gid
		if b.count[gid] == 0 {
			b.order = append(b.order, gid)
		}
		b.count[gid]++
	}
	b.start = b.start[:0]
	off := 0
	for _, gid := range b.order {
		b.start = append(b.start, off)
		off, b.count[gid] = off+b.count[gid], off
	}
	b.start = append(b.start, off)
	b.buf = slices.Grow(b.buf[:0], len(points))[:len(points)]
	for _, p := range points {
		gid := db.series[p.Tid-1].Gid
		b.buf[b.count[gid]] = p
		b.count[gid]++
	}
	for _, gid := range b.order {
		b.count[gid] = 0
	}
	// Lane keys are WAL shards (or Gids): two groups whose records share
	// a WAL file always share a lane. Lanes are numbered in group order,
	// so lane 0 holds the first group.
	width := min(runtime.GOMAXPROCS(0), len(b.order), db.lanes)
	b.laneOf = slices.Grow(b.laneOf[:0], width)[:width]
	for k := range b.laneOf {
		b.laneOf[k] = -1
	}
	b.lane, b.nlanes = b.lane[:0], 0
	for _, gid := range b.order {
		k := int(gid) % db.lanes % width
		if b.laneOf[k] < 0 {
			b.laneOf[k] = b.nlanes
			b.nlanes++
		}
		b.lane = append(b.lane, b.laneOf[k])
	}
	b.errs = slices.Grow(b.errs[:0], len(b.order))[:len(b.order)]
	b.kept = slices.Grow(b.kept[:0], len(b.order))[:len(b.order)]
	return nil
}

// appendLane ingests the batch's groups of one lane, in group order,
// recording each group's error in b.errs and the points it kept in
// b.kept; a failed group does not stop the lane, a cancelled ctx does.
func (db *DB) appendLane(ctx context.Context, b *batchSplit, lane int, seqs map[Gid]uint64) {
	for i, gid := range b.order {
		if b.lane[i] != lane {
			continue
		}
		if err := ctx.Err(); err != nil {
			b.errs[i] = err
			return
		}
		b.kept[i], b.errs[i] = db.appendGroup(gid, b.buf[b.start[i]:b.start[i+1]], seqs[gid])
	}
}

// appendGroup ingests one group's slice of a batch under its shard
// lock. seq is the master-assigned batch sequence (0 = unsequenced).
// The segments it fits stay in the shard's emitted list for the
// caller to drain. It returns how many of the points it ingested.
func (db *DB) appendGroup(gid Gid, points []DataPoint, seq uint64) (int, error) {
	sh := db.shards[gid]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if db.closed.Load() {
		return 0, ErrClosed
	}
	if seq != 0 && seq <= sh.applied {
		return 0, nil // duplicate delivery: this batch was already ingested
	}
	t0 := time.Now()
	if db.wal != nil {
		// One WAL record covers the whole group slice; replay applies
		// its points in order and stops at the first rejected point,
		// mirroring the early return below. The record carries seq, so
		// the dedup mark is durable before the batch is acknowledged.
		if _, err := db.wal.Append(gid, seq, points); err != nil {
			return 0, err
		}
	}
	if seq != 0 {
		sh.applied = seq
	}
	for i, p := range points {
		series := db.series[p.Tid-1]
		if err := sh.gi.Append(p.Tid, p.TS, p.Value*series.Scaling); err != nil {
			db.ingest.Points.Add(int64(i))
			return i, err
		}
	}
	// Batch-granularity observation: one atomic add and two clock reads
	// amortized over the whole group slice.
	db.ingest.Points.Add(int64(len(points)))
	db.ingest.Batches.Inc()
	db.ingest.BatchSeconds.ObserveSince(t0)
	db.ingest.BatchPoints.Observe(float64(len(points)))
	return len(points), nil
}

// AppliedSeqs snapshots every group's dedup high-water mark — the
// highest master-assigned batch sequence applied per group. A cluster
// master fetches it when (re)connecting so freshly assigned sequences
// continue above everything the worker has already ingested.
func (db *DB) AppliedSeqs() map[Gid]uint64 {
	out := make(map[Gid]uint64)
	for _, gid := range db.gids {
		sh := db.shards[gid]
		sh.mu.Lock()
		if sh.applied != 0 {
			out[gid] = sh.applied
		}
		sh.mu.Unlock()
	}
	return out
}

// Flush finalizes all buffered data points into segments and persists
// them.
func (db *DB) Flush() error {
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	// Checked under flushMu: Close flips the flag before taking the
	// lock, so a Flush either runs fully before Close's own flush or
	// observes the closed state here.
	if db.closed.Load() {
		return ErrClosed
	}
	return db.flushShards()
}

// flushShards flushes every group's ingestor (in Gid order, for
// deterministic segment emission) and then the store. With a WAL it
// additionally checkpoints, so the log never grows past one flush
// interval of data.
func (db *DB) flushShards() error {
	if db.wal != nil {
		return db.checkpointShards()
	}
	for _, gid := range db.gids {
		sh := db.shards[gid]
		sh.mu.Lock()
		err := cmp.Or(sh.gi.Flush(), db.drain(sh))
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return db.store.Flush()
}

// checkpointShards is the WAL-enabled flush: it holds every shard lock
// across the store sync so no append can slip points into the synced
// log after its group's high-water sequence was captured — the
// invariant that lets recovery truncate the store at the checkpoint
// offset and replay the WAL tail without duplicating or losing points.
// It drains every shard's held segments under those locks too: a
// batch still fitting other groups holds the segments of the groups it
// finished, whose WAL records the checkpoint is about to cover.
// Flush is the rare heavyweight operation; appends wait it out.
func (db *DB) checkpointShards() error {
	for _, gid := range db.gids {
		db.shards[gid].mu.Lock()
	}
	defer func() {
		for i := len(db.gids) - 1; i >= 0; i-- {
			db.shards[db.gids[i]].mu.Unlock()
		}
	}()
	for _, gid := range db.gids {
		sh := db.shards[gid]
		if err := cmp.Or(sh.gi.Flush(), db.drain(sh)); err != nil {
			return err
		}
	}
	// Every group lock is held, so these marks cover exactly what the
	// store has now; groups the configuration no longer knows, which
	// can never replay, are checkpointed at theirs too.
	seqs := db.wal.Seqs()
	if err := db.store.Sync(); err != nil {
		return err
	}
	if db.cfg.Path == "" {
		// Memory-backed store: the WAL is the only durable copy, so it is
		// never checkpoint-truncated; sync it instead, making Flush a
		// durability point under every fsync policy.
		return db.wal.Sync()
	}
	return db.wal.Checkpoint(seqs, db.store.LogOffset())
}

// Query parses and executes a SQL query (§6.1). Cancelling ctx aborts
// the scan within one chunk of work per executor goroutine and returns
// ctx.Err(). Pass context.Background() when no cancellation or
// deadline is needed.
func (db *DB) Query(ctx context.Context, sql string) (*Result, error) {
	return db.engine.Execute(ctx, sql)
}

// QueryRows executes a SQL query and returns a streaming cursor
// instead of a materialized Result: rows arrive incrementally from the
// parallel executor in deterministic scan order, Close stops the scan
// early and drains the worker pool, and cancelling ctx aborts it. Use
// it for large point-data exports where materializing every row first
// would thrash memory. Aggregate and ORDER BY queries cannot yield a
// row before the scan ends: the cursor finalizes them first and then
// walks the result's typed rows, unboxed.
func (db *DB) QueryRows(ctx context.Context, sql string) (*Rows, error) {
	return db.engine.QueryRowsSQL(ctx, sql)
}

// Engine exposes the query engine for distributed execution (partial
// execution on workers, merge on the master).
func (db *DB) Engine() *query.Engine { return db.engine }

// Close flushes and releases the database. Appends and Flushes racing
// with Close either complete (and are persisted) or return ErrClosed.
// The store and the WAL are closed even when the final flush fails, and
// the first error is returned: Close is never retried, since a second
// call returns ErrClosed.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return ErrClosed
	}
	db.flushMu.Lock()
	defer db.flushMu.Unlock()
	err := cmp.Or(db.flushShards(), db.store.Close())
	if db.wal != nil {
		err = cmp.Or(err, db.wal.Close())
	}
	return err
}

// Canonical registry names of the metrics Stats summarizes. Cluster
// components and admin surfaces address snapshot entries through these
// instead of hand-copying counter fields.
const (
	MetricSeries          = "modelardb_series"
	MetricGroups          = "modelardb_groups"
	MetricSegments        = "modelardb_segments"
	MetricStorageBytes    = "modelardb_storage_bytes"
	MetricPoints          = "modelardb_ingested_points_total"
	MetricStoreReads      = "modelardb_store_reads_total"
	MetricStoreReadBytes  = "modelardb_store_read_bytes_total"
	MetricWALBytes        = "modelardb_wal_size_bytes"
	MetricWALPending      = "modelardb_wal_pending_bytes"
	MetricWALFsyncs       = "modelardb_wal_fsyncs_total"
	MetricInFlightStreams = "modelardb_rpc_streams_inflight"
	MetricQueuedBatches   = "modelardb_cluster_queued_batches"
)

// Retired names: the segment cache they counted is gone and no
// registry carries them, so a snapshot reads both as zero. The
// constants remain for tools compiled against them.
const (
	MetricCacheHits   = "modelardb_cache_hits_total"
	MetricCacheMisses = "modelardb_cache_misses_total"
)

// Stats summarizes the database contents.
type Stats struct {
	// Series is the number of registered time series.
	Series int
	// Groups is the number of time series groups.
	Groups int
	// Segments is the number of stored segments.
	Segments int64
	// StorageBytes is the serialized size of all segments: the bytes of
	// the segment log's blocks without their 8-byte frame headers, each
	// buffered segment counted as a block of one.
	StorageBytes int64
	// DataPoints is the number of points ingested in this session.
	DataPoints int64
	// WALBytes is the write-ahead log's current on-disk volume; zero
	// when the WAL is disabled.
	WALBytes int64
	// WALBytesSinceCheckpoint is the write-side backpressure signal:
	// record bytes appended to the WAL since its last checkpoint. A
	// value racing ahead of the flush cadence means checkpoints are not
	// keeping up with ingestion; throttle writers or flush. Zero when
	// the WAL is disabled.
	WALBytesSinceCheckpoint int64
	// WALFsyncs counts fsyncs issued by the WAL. Under the "always"
	// policy group commit coalesces concurrent appends onto shared
	// fsyncs, so WALFsyncs growing slower than DataPoints is the
	// coalescing working. Zero when the WAL is disabled.
	WALFsyncs int64
	// InFlightStreams is the number of streaming scatter replies a
	// worker is currently producing (cluster Stats only; a standalone
	// DB reports zero). Each in-flight stream holds O(chunk) memory on
	// the master, so this bounds scatter memory alongside
	// StreamChunkBytes.
	InFlightStreams int64
	// QueuedBatches is the number of sealed ingestion batches in the
	// master's per-worker send queues that no worker has acknowledged
	// yet, in-flight ones included (cluster Stats only). A growing queue
	// is the read-side of write backpressure: a worker is accepting
	// batches slower than the master seals them.
	QueuedBatches int64
}

// Stats returns current statistics: a typed view over the metrics
// registry snapshot, so it reports exactly what /metrics and the STATS
// command report. The error result is kept for API compatibility and
// is always nil.
func (db *DB) Stats() (Stats, error) {
	return StatsFromSnapshot(db.Snapshot()), nil
}

// StatsFromSnapshot builds the typed Stats summary from a registry
// snapshot — the DB's own, or a cluster-wide merge of worker
// snapshots. Keys a snapshot does not carry (the WAL family on a
// WAL-less instance, cluster gauges on a standalone DB) read as zero.
func StatsFromSnapshot(snap map[string]float64) Stats {
	return Stats{
		Series:                  int(snap[MetricSeries]),
		Groups:                  int(snap[MetricGroups]),
		Segments:                int64(snap[MetricSegments]),
		StorageBytes:            int64(snap[MetricStorageBytes]),
		DataPoints:              int64(snap[MetricPoints]),
		WALBytes:                int64(snap[MetricWALBytes]),
		WALBytesSinceCheckpoint: int64(snap[MetricWALPending]),
		WALFsyncs:               int64(snap[MetricWALFsyncs]),
		InFlightStreams:         int64(snap[MetricInFlightStreams]),
		QueuedBatches:           int64(snap[MetricQueuedBatches]),
	}
}

// Metrics exposes the instance's observability registry: admin
// endpoints serve it (WritePrometheus), cluster components register
// their own instruments into it, and tests read it directly.
func (db *DB) Metrics() *obs.Registry { return db.metrics }

// Snapshot returns the current value of every registered metric keyed
// by name; histograms contribute name_count and name_sum entries.
func (db *DB) Snapshot() map[string]float64 { return db.metrics.Snapshot() }

// ModelUsage returns, per model name, the percentage of stored
// segments using that model — the quantity of the paper's Figures 16
// and 17.
func (db *DB) ModelUsage() (map[string]float64, error) {
	counts := map[MID]int64{}
	var total int64
	err := db.store.Scan(context.Background(), storage.AllTime(), func(s *core.Segment) error {
		counts[s.MID]++
		total++
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(counts))
	for mid, n := range counts {
		name := fmt.Sprintf("MID%d", mid)
		if mt, ok := db.reg.Get(mid); ok {
			name = mt.Name()
		}
		out[name] = 100 * float64(n) / float64(total)
	}
	return out, nil
}

// GroupOf returns the group a series belongs to.
func (c *Catalog) GroupOf(tid Tid) (Gid, error) { return c.meta.GidOf(tid) }

// Groups returns all group ids.
func (c *Catalog) Groups() []Gid { return c.meta.Groups() }

// GroupMembers returns the sorted member Tids of a group.
func (c *Catalog) GroupMembers(gid Gid) []Tid { return c.meta.TidsOf(gid) }

// NumSeries returns the number of registered series.
func (c *Catalog) NumSeries() int { return c.meta.NumSeries() }

// TidOfSource resolves a series by its configured Source name (the
// first declaration wins when sources collide). Wire protocols that
// name series instead of numbering them — Prometheus remote write's
// __name__ label, for one — use it to map names onto Tids.
func (c *Catalog) TidOfSource(source string) (Tid, bool) {
	tid, ok := c.sources[source]
	return tid, ok
}

// Metadata exposes the metadata cache for cluster components.
func (c *Catalog) Metadata() *core.MetadataCache { return c.meta }
