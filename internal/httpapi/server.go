// Package httpapi is the HTTP/JSON front-end of a modelardb instance:
// standard wire protocols layered over the in-process Go API, which
// stays first-class — every endpoint is a thin mapping onto the same
// calls embedded users make.
//
//	POST /api/v1/append      JSON point batches    → Backend.AppendBatch
//	POST /api/v1/query       SQL → streamed JSON or CSV rows, off the
//	                         streaming Rows cursor (responses never
//	                         materialize server-side)
//	POST /api/v1/prom/write  Prometheus remote write (snappy-compressed
//	                         protobuf WriteRequest) → Backend.AppendBatch
//
// Requests authenticate with bearer tokens (Config.HTTPTokens /
// http_token directives); each token has a token-bucket rate limit
// (Config.HTTPRateLimit / http_rate_limit, per-token overrides).
// Rejections are 401 (missing or unknown token) and 429 with a
// Retry-After header (over quota). With no tokens configured the API
// is open — the loopback admin default — and the default rate, if
// set, applies to all anonymous traffic through one shared bucket.
//
// Every endpoint reports per-endpoint request, latency, rejection and
// error metrics into the instance's obs registry, so HTTP traffic
// shows up in /metrics, /statusz and STATS next to the line-protocol
// counters; queries executed over HTTP run through the same engine
// traces and slow-query log as every other query.
//
// The documented reference (status codes, payload schemas, curl
// examples) is docs/http-api.md.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"modelardb"
	"modelardb/internal/obs"
)

// Token is one bearer token with its optional rate override.
type Token = modelardb.HTTPToken

// Backend is the surface the HTTP API serves. *modelardb.DB implements
// it directly; a cluster master front-end satisfies it by delegating
// Append/Flush to the cluster client and queries to its own engine.
type Backend interface {
	// AppendBatch ingests a batch of points (the /api/v1/append and
	// remote-write mapping). It must not retain points after it
	// returns: the append endpoint reuses the slice for its next batch.
	AppendBatch(ctx context.Context, points []modelardb.DataPoint) error
	// QueryRows executes SQL and returns the streaming cursor the
	// /api/v1/query response is rendered from.
	QueryRows(ctx context.Context, sql string) (*modelardb.Rows, error)
	// Flush finalizes buffered points ("flush":true on an append).
	Flush() error
	// TidOfSource resolves a series name (remote write's __name__
	// label, append's "source" field) to its Tid.
	TidOfSource(source string) (modelardb.Tid, bool)
}

// Options configures a Server.
type Options struct {
	// Tokens are the accepted bearer tokens; empty leaves the API open.
	Tokens []Token
	// DefaultRate is the per-token (or, with no tokens, anonymous)
	// request rate in requests per second; 0 = unlimited.
	DefaultRate float64
	// Metrics receives the per-endpoint instruments; nil disables
	// observation (a private throwaway registry absorbs the updates).
	Metrics *obs.HTTPMetrics
	// MaxBodyBytes bounds a request body; 0 selects 32 MiB.
	MaxBodyBytes int64
}

// Endpoints are the metric label values of the API's endpoints, in the
// order they are registered; pass them to obs.NewHTTPMetrics.
var Endpoints = []string{"append", "query", "prom_write"}

// DefaultMaxBodyBytes bounds request bodies unless Options overrides.
const DefaultMaxBodyBytes = 32 << 20

// Server serves the HTTP API for one backend.
type Server struct {
	backend Backend
	auth    *authorizer
	metrics *obs.HTTPMetrics
	maxBody int64
	mux     *http.ServeMux
}

// New builds a Server; mount it with Register or serve Handler.
func New(b Backend, opts Options) *Server {
	m := opts.Metrics
	if m == nil {
		m = obs.NewHTTPMetrics(obs.NewRegistry(), Endpoints)
	}
	maxBody := opts.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = DefaultMaxBodyBytes
	}
	s := &Server{
		backend: b,
		auth:    newAuthorizer(opts.Tokens, opts.DefaultRate),
		metrics: m,
		maxBody: maxBody,
		mux:     http.NewServeMux(),
	}
	s.Register(s.mux)
	return s
}

// Handler returns the API as a standalone http.Handler (a dedicated
// -http-api listener serves exactly this).
func (s *Server) Handler() http.Handler { return s.mux }

// Register mounts the API's routes on mux — how the daemon shares the
// admin endpoint's mux between /metrics and /api/v1.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/api/v1/append", s.guard("append", s.handleAppend))
	mux.HandleFunc("/api/v1/query", s.guard("query", s.handleQuery))
	mux.HandleFunc("/api/v1/prom/write", s.guard("prom_write", s.handleRemoteWrite))
}

// guard wraps an endpoint handler with the shared admission path:
// method check, bearer auth, rate limiting, body bounding, and the
// per-endpoint request/latency instruments.
func (s *Server) guard(name string, h func(endpoint string, w http.ResponseWriter, r *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeJSONError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		if status, retry := s.auth.admit(r, time.Now()); status != 0 {
			switch status {
			case http.StatusUnauthorized:
				s.metrics.Unauthorized[name].Inc()
				w.Header().Set("WWW-Authenticate", `Bearer realm="modelardb"`)
				writeJSONError(w, status, "missing or unknown bearer token")
			case http.StatusTooManyRequests:
				s.metrics.Throttled[name].Inc()
				w.Header().Set("Retry-After", retryAfterHeader(retry))
				writeJSONError(w, status, "rate limit exceeded")
			}
			return
		}
		s.metrics.Requests[name].Inc()
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
		t0 := time.Now()
		h(name, w, r)
		s.metrics.Seconds[name].Observe(time.Since(t0).Seconds())
	}
}

// fail rejects a request with a JSON error body and counts it against
// the endpoint's error counter.
func (s *Server) fail(endpoint string, w http.ResponseWriter, status int, format string, args ...any) {
	s.metrics.Errors[endpoint].Inc()
	writeJSONError(w, status, fmt.Sprintf(format, args...))
}

// writeJSONError renders {"error": msg} with the given status.
func writeJSONError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

// handleAppend implements POST /api/v1/append: a JSON body of either
// the form {"points": [...], "flush": bool} or a bare point array,
// scanned by an appendDecoder and ingested through AppendBatch in
// core.ShipSize slices.
func (s *Server) handleAppend(endpoint string, w http.ResponseWriter, r *http.Request) {
	f := r.URL.Query().Get("flush")
	flush := f == "1" || f == "true"
	d := appendDecoders.Get().(*appendDecoder)
	defer d.release()
	bodyFlush, err := d.decode(r.Body, s.backend.TidOfSource, func(batch []modelardb.DataPoint) error {
		return s.backend.AppendBatch(r.Context(), batch)
	})
	if err != nil {
		// Slices already shipped are ingested — appends over HTTP are
		// at-least-once under mid-batch errors; the count reports how far
		// the request got, including the points a failed slice kept.
		status := http.StatusBadRequest
		if r.Context().Err() != nil {
			status = 499 // client closed request
		}
		s.fail(endpoint, w, status, "append failed after %d points: %v", d.ship.Kept, err)
		return
	}
	flush = flush || bodyFlush
	if flush {
		if err := s.backend.Flush(); err != nil {
			s.fail(endpoint, w, http.StatusInternalServerError, "flush: %v", err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"appended\":%d,\"flushed\":%v}\n", d.ship.Kept, flush)
}

// queryRequest is the /api/v1/query body when sent as JSON; a
// text/plain body is the raw SQL instead.
type queryRequest struct {
	SQL string `json:"sql"`
}

// handleQuery implements POST /api/v1/query: execute SQL and stream
// the result rows straight off the cursor — as a JSON object
// ({"columns": [...], "rows": [[...], ...]}) or, when the request
// prefers text/csv, as CSV with a header row. An error after the
// first streamed row cannot change the (already sent) status code; it
// terminates the stream and is reported in-band: JSON responses carry
// a final "error" member, CSV responses a trailing "# error:" line.
// Rows reach the client in Rows.WriteText's blocks, and a failed write
// (the client hung up) ends the render.
func (s *Server) handleQuery(endpoint string, w http.ResponseWriter, r *http.Request) {
	sql, err := readSQL(r)
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "%v", err)
		return
	}
	rows, err := s.backend.QueryRows(r.Context(), sql)
	if err != nil {
		s.fail(endpoint, w, http.StatusBadRequest, "%v", err)
		return
	}
	defer rows.Close()
	if wantsCSV(r) {
		s.streamCSV(endpoint, w, rows)
		return
	}
	s.streamJSON(endpoint, w, rows)
}

// readSQL extracts the SQL text from a query request body.
func readSQL(r *http.Request) (string, error) {
	ct := r.Header.Get("Content-Type")
	if strings.HasPrefix(ct, "application/json") {
		var q queryRequest
		if err := json.NewDecoder(r.Body).Decode(&q); err != nil {
			return "", fmt.Errorf("invalid JSON: %w", err)
		}
		if strings.TrimSpace(q.SQL) == "" {
			return "", errors.New(`body must carry {"sql": "SELECT ..."}`)
		}
		return q.SQL, nil
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return "", err
	}
	sql := strings.TrimSpace(string(body))
	if sql == "" {
		return "", errors.New("empty query body")
	}
	return sql, nil
}

// wantsCSV reports whether the request prefers a CSV response.
func wantsCSV(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), "text/csv")
}

// streamJSON renders the cursor as one JSON object, in blocks.
func (s *Server) streamJSON(endpoint string, w http.ResponseWriter, rows *modelardb.Rows) {
	w.Header().Set("Content-Type", "application/json")
	buf := rows.AppendHeader([]byte(`{"columns":`), modelardb.TextJSON)
	buf, _, err := rows.WriteText(w, append(buf, `,"rows":[`...), modelardb.TextJSON)
	if err != nil {
		return // the client is gone; Close releases the cursor
	}
	buf = append(buf, ']')
	if err := rows.Err(); err != nil {
		s.metrics.Errors[endpoint].Inc()
		buf = append(buf, `,"error":`...)
		buf = modelardb.TextJSON.AppendString(buf, err.Error())
	}
	w.Write(append(buf, '}', '\n'))
}

// streamCSV renders the cursor as CSV with a header row, in blocks.
func (s *Server) streamCSV(endpoint string, w http.ResponseWriter, rows *modelardb.Rows) {
	w.Header().Set("Content-Type", "text/csv")
	buf, _, err := rows.WriteText(w, rows.AppendHeader(nil, modelardb.TextCSV), modelardb.TextCSV)
	if err != nil {
		return // the client is gone; Close releases the cursor
	}
	if err := rows.Err(); err != nil {
		s.metrics.Errors[endpoint].Inc()
		buf = fmt.Appendf(buf, "# error: %v\n", err)
	}
	w.Write(buf)
}
