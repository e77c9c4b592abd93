package main

import (
	"time"

	"modelardb"
)

// The constants in this file are the benchmark of record. Changing any
// of them changes what every recorded number means, so a change here
// is its own PR with a fresh baseline — never part of a PR that claims
// a gain.

// runSeconds is the measured window BENCHMARK.json asks the driver for.
// The pinned input checksums of mixed_http assume it, because that
// workload's append stream is sized rate × window.
const runSeconds = 12

// setupRepeats is how many times a run sets the workload up from
// nothing; setup_s is the median. The last set-up is the one measured.
const setupRepeats = 5

// batchPoints is the size of one AppendBatch call (and of one timed run
// of Client.Append calls on the TCP cluster).
const batchPoints = 4096

// epStart places the EP data on 2021-01-28T00:00Z so its eight days
// cross a month boundary and CUBE_SUM_MONTH has two buckets to fill.
const epStart int64 = 1_611_792_000_000

// scale sizes the generated inputs. fullScale is frozen; the smoke test
// runs the same code at tinyScale.
type scale struct {
	epEntities int // × 4 measures = series of ingest_bulk and agg_*
	epTicks    int
	ehSeries   int // series of scatter_tcp2 and mixed_http
	ehTicks    int // scatter_tcp2 ticks per series
	// scatterScanTicks sizes the streamed row scan: ticks × series rows.
	scatterScanTicks int
	httpHistory      int // preloaded ticks per series of mixed_http
	httpRate         int // appends per second on connection A
	httpPoints       int // points per append
	httpVariants     int // distinct seeded panels connection B cycles through
	// Sample caps of the traced run's layer replays.
	replayPoints   int
	replaySegments int
}

var fullScale = scale{
	epEntities:       96,
	epTicks:          4000,
	ehSeries:         16,
	ehTicks:          60000,
	scatterScanTicks: 7500,
	httpHistory:      100000,
	httpRate:         200,
	httpPoints:       500,
	httpVariants:     32,
	replayPoints:     1 << 20,
	replaySegments:   20000,
}

var tinyScale = scale{
	epEntities:       4,
	epTicks:          900,
	ehSeries:         8,
	ehTicks:          1500,
	scatterScanTicks: 300,
	httpHistory:      1500,
	httpRate:         100,
	httpPoints:       40,
	httpVariants:     4,
	replayPoints:     1 << 13,
	replaySegments:   500,
}

const gapRate = 0.0005

// epClauses groups the measures of one entity that share a category,
// the paper's EP configuration (§7.3).
var epClauses = []string{
	"Production 0, Measure 1 Production",
	"Production 0, Measure 1 Temperature",
}

// ehClause is the lowest-distance rule of thumb for EH's 3- and 2-level
// dimensions (§7.3).
const ehClause = "0.16666667"

// Workload names, in BENCHMARK.json order.
const (
	wIngestBulk   = "ingest_bulk"
	wAggSegment   = "agg_segment"
	wAggDataPoint = "agg_datapoint"
	wScatterTCP2  = "scatter_tcp2"
	wMixedHTTP    = "mixed_http"
)

// workloadDef is one workload's frozen description.
type workloadDef struct {
	name string
	why  string
	// bound is the error bound the oracle checks answers against.
	bound modelardb.ErrorBound
}

var workloadDefs = []workloadDef{
	{wIngestBulk, "EP-like bulk load at 1% into a fresh WAL+file store, reopened and counted: model fit, group ingestion, WAL and store writes do all the work and the query path almost none (Fig. 13/14).", modelardb.RelBound(1)},
	{wAggSegment, "L-AGG, M-AGG and S-AGG on the Segment view over a store larger than the view cache: prune, segment decode, ViewInto and closed-form folds dominate, and no point is reconstructed (§6).", modelardb.RelBound(1)},
	{wAggDataPoint, "The same four questions on the DataPoint view: same layers, but every point is reconstructed. It is agg_segment's control and agg_segment is its control.", modelardb.RelBound(1)},
	{wScatterTCP2, "EH-like data at 5% on two TCP workers behind a cluster master: wire codec, framed transport, incremental merge and the boxed client result do work here that no other workload does.", modelardb.RelBound(5)},
	{wMixedHTTP, "Lossless EH over HTTP: 200 open-loop 500-point JSON appends/s beside a closed-loop CSV point/range panel on one node, so a gain for one side that costs the other shows.", modelardb.RelBound(0)},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// metricDef mirrors one metric entry of BENCHMARK.json; the smoke test
// asserts the two stay identical.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all five, each through its own write and read path (see
// README.md for which workload is the primary for which metric).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_points_per_s", "points/s", "higher", 0.25},
	{"bytes_per_point", "B/point", "lower", 0.25},
	{"refresh_p50_ms", "ms", "lower", 0.25},
	{"append_p50_ms", "ms", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced run.
var perLayer = []metricDef{
	{Name: "partition.group_ms", Unit: "ms", Better: "lower"},
	{Name: "models.fit_ns_per_point.pmc", Unit: "ns/point", Better: "lower"},
	{Name: "models.fit_ns_per_point.swing", Unit: "ns/point", Better: "lower"},
	{Name: "models.fit_ns_per_point.gorilla", Unit: "ns/point", Better: "lower"},
	{Name: "models.points_per_model.pmc", Unit: "points", Better: "higher"},
	{Name: "models.points_per_model.swing", Unit: "points", Better: "higher"},
	{Name: "models.points_per_model.gorilla", Unit: "points", Better: "higher"},
	{Name: "models.share.pmc", Unit: "%", Better: "higher"},
	{Name: "models.share.swing", Unit: "%", Better: "higher"},
	{Name: "models.share.gorilla", Unit: "%", Better: "lower"},
	{Name: "core.ingest_ns_per_point", Unit: "ns/point", Better: "lower"},
	{Name: "core.segment_encode_ns", Unit: "ns/segment", Better: "lower"},
	{Name: "core.segment_decode_ns", Unit: "ns/segment", Better: "lower"},
	{Name: "wal.append_ns_per_point", Unit: "ns/point", Better: "lower"},
	{Name: "wal.bytes_per_point", Unit: "B/point", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "storage.insert_ns_per_segment", Unit: "ns/segment", Better: "lower"},
	{Name: "storage.scan_ns_per_segment", Unit: "ns/segment", Better: "lower"},
	{Name: "storage.scanned_per_matched", Unit: "ratio", Better: "lower"},
	{Name: "sqlparse.parse_ns_per_query", Unit: "ns/query", Better: "lower"},
	{Name: "models.view_ns_per_segment", Unit: "ns/segment", Better: "lower"},
	{Name: "models.range_agg_ns_per_segment", Unit: "ns/segment", Better: "lower"},
	{Name: "models.reconstruct_ns_per_point", Unit: "ns/point", Better: "lower"},
	{Name: "query.partial_ms", Unit: "ms", Better: "lower"},
	{Name: "query.finalize_ms", Unit: "ms", Better: "lower"},
	{Name: "query.rows_per_refresh", Unit: "rows", Better: "lower"},
	{Name: "query.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "query.wire_encode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "query.wire_decode_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "query.wire_bytes_per_row", Unit: "B/row", Better: "lower"},
	{Name: "query.merge_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "cluster.scatter_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.chunks_per_refresh", Unit: "count", Better: "lower"},
	{Name: "cluster.bytes_per_refresh", Unit: "B", Better: "lower"},
	{Name: "httpapi.append_ns_per_point", Unit: "ns/point", Better: "lower"},
	{Name: "httpapi.render_ns_per_row", Unit: "ns/row", Better: "lower"},
	{Name: "client.query_p50_ms.q1", Unit: "ms", Better: "lower"},
	{Name: "client.query_p50_ms.q2", Unit: "ms", Better: "lower"},
	{Name: "client.query_p50_ms.q3", Unit: "ms", Better: "lower"},
	{Name: "client.query_p50_ms.q4", Unit: "ms", Better: "lower"},
	{Name: "client.refreshes_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.alloc_bytes_per_op", Unit: "B/op", Better: "lower"},
	{Name: "client.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "client.tail_ms", Unit: "ms", Better: "lower"},
	{Name: "client.tail_percentile", Unit: "%", Better: "higher"},
	{Name: "client.tail_samples", Unit: "count", Better: "higher"},
	{Name: "client.late_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead", Unit: "ratio", Better: "lower"},
}

// Floors a full-scale run is expected to clear; a run below one still
// reports, flagged, because its medians rest on too few samples.
const (
	floorIngestReps = 10
	floorRefreshes  = 60
	floorAppends    = 2000
)

// httpHorizon is how far connection B's aggregate and scan queries
// reach: ten minutes of 100 ms ticks.
const httpHorizon = 10 * time.Minute
