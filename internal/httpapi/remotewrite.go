package httpapi

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"modelardb"
	"modelardb/internal/core"
)

// Remote-write ingestion: POST /api/v1/prom/write accepts the
// Prometheus remote-write 1.0 payload — a snappy-compressed protobuf
// WriteRequest — and maps every sample onto AppendBatch. Sample
// timestamps are milliseconds since the epoch, exactly modelardb's TS
// axis, so the mapping is value conversion plus series resolution:
//
//   - a "modelardb_tid" label addresses the series directly by Tid;
//   - otherwise the "__name__" metric name resolves against the
//     configured series Source names (Backend.TidOfSource).
//
// Resolution runs over the whole request before any point is
// ingested, so an unresolvable series rejects the request with 400 —
// which remote-write senders treat as non-retryable, the right
// semantics for a misconfigured metric name — without partial writes
// from the resolution phase. The points then ship through AppendBatch
// in core.ShipSize slices. Ingestion errors (an out-of-order sample,
// say) also map to 400: retrying the same payload can never succeed,
// and 5xx would make the sender loop on it forever. Such a 400 states
// how many of the request's points the database kept, earlier slices
// included, as the JSON append endpoint's does.
// Success is 204 No Content.

// tidLabel addresses a series directly by Tid, bypassing name
// resolution — for senders whose series were never configured with
// Source names.
const tidLabel = "modelardb_tid"

// handleRemoteWrite implements POST /api/v1/prom/write.
func (s *Server) handleRemoteWrite(endpoint string, w http.ResponseWriter, r *http.Request) {
	compressed, err := io.ReadAll(r.Body)
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	raw, err := snappyDecode(compressed)
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "%v", err)
		return
	}
	series, err := decodeWriteRequest(raw)
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "%v", err)
		return
	}
	tids := make([]modelardb.Tid, len(series))
	for i := range series {
		if tids[i], err = s.resolveSeries(&series[i]); err != nil {
			s.fail(endpoint, w, http.StatusBadRequest, "%v", err)
			return
		}
		// Senders may batch a series' samples out of order within one
		// request even when the stream itself is ordered; modelardb
		// requires monotone timestamps per series, so sort each series'
		// samples before appending.
		samples := series[i].Samples
		sort.SliceStable(samples, func(a, b int) bool { return samples[a].Timestamp < samples[b].Timestamp })
	}
	ship := core.Shipper{Sink: func(batch []modelardb.DataPoint) error {
		return s.backend.AppendBatch(r.Context(), batch)
	}}
	for i := 0; i < len(series) && err == nil; i++ {
		for _, sm := range series[i].Samples {
			if err = ship.Add(modelardb.DataPoint{Tid: tids[i], TS: sm.Timestamp, Value: float32(sm.Value)}); err != nil {
				break
			}
		}
	}
	if err == nil {
		err = ship.Flush()
	}
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "append failed after %d points: %v", ship.Kept, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// resolveSeries maps one remote-write series onto a Tid.
func (s *Server) resolveSeries(ts *promSeries) (modelardb.Tid, error) {
	var name string
	for _, l := range ts.Labels {
		switch l.Name {
		case tidLabel:
			tid, err := strconv.ParseInt(l.Value, 10, 64)
			if err != nil || tid <= 0 {
				return 0, fmt.Errorf("label %s=%q is not a positive integer", tidLabel, l.Value)
			}
			return modelardb.Tid(tid), nil
		case "__name__":
			name = l.Value
		}
	}
	if name == "" {
		return 0, fmt.Errorf("series without a __name__ or %s label", tidLabel)
	}
	tid, ok := s.backend.TidOfSource(name)
	if !ok {
		return 0, fmt.Errorf("no series with source %q (configure it, or send a %s label)", name, tidLabel)
	}
	return tid, nil
}
