package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modelardb"
	"modelardb/internal/obs"
)

// testDB opens an in-memory database with two named series so both
// Tid- and source-addressed ingestion paths are exercisable.
func testDB(t testing.TB) *modelardb.DB {
	t.Helper()
	db, err := modelardb.Open(modelardb.Config{
		ErrorBound: modelardb.RelBound(0),
		Dimensions: []modelardb.Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Series: []modelardb.SeriesConfig{
			{Source: "s1", SI: 1000, Members: map[string][]string{"Location": {"A"}}},
			{Source: "s2", SI: 1000, Members: map[string][]string{"Location": {"B"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// newTestServer serves a fresh DB over httptest with the given options
// and returns the server plus its metrics registry.
func newTestServer(t *testing.T, opts Options) (*httptest.Server, *modelardb.DB, *obs.Registry) {
	t.Helper()
	db := testDB(t)
	reg := db.Metrics()
	if opts.Metrics == nil {
		opts.Metrics = obs.NewHTTPMetrics(reg, Endpoints)
	}
	ts := httptest.NewServer(New(db, opts).Handler())
	t.Cleanup(ts.Close)
	return ts, db, reg
}

func post(t *testing.T, url, contentType, body string, header http.Header) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", contentType)
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(raw)
}

func TestAppendThenQueryJSON(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})

	resp, body := post(t, ts.URL+"/api/v1/append", "application/json",
		`{"points":[{"tid":1,"ts":0,"value":5},{"tid":1,"ts":1000,"value":5},{"source":"s2","ts":0,"value":7}],"flush":true}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d body %q", resp.StatusCode, body)
	}
	if body != "{\"appended\":3,\"flushed\":true}\n" {
		t.Fatalf("append body = %q", body)
	}

	resp, body = post(t, ts.URL+"/api/v1/query", "application/json",
		`{"sql":"SELECT SUM_S(*) FROM Segment"}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d body %q", resp.StatusCode, body)
	}
	if strings.TrimSpace(body) != `{"columns":["SUM_S(*)"],"rows":[[17]]}` {
		t.Fatalf("query body = %q", body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("query content type = %q", ct)
	}
}

func TestAppendBareArrayAndRawSQL(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, body := post(t, ts.URL+"/api/v1/append?flush=true", "application/json",
		`[{"tid":1,"ts":0,"value":2},{"tid":1,"ts":1000,"value":4}]`, nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"appended":2`) {
		t.Fatalf("append = %d %q", resp.StatusCode, body)
	}
	// A text/plain body is the SQL itself.
	resp, body = post(t, ts.URL+"/api/v1/query", "text/plain",
		"SELECT Tid, TS, Value FROM DataPoint", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d body %q", resp.StatusCode, body)
	}
	want := `{"columns":["Tid","TS","Value"],"rows":[[1,0,2],[1,1000,4]]}`
	if strings.TrimSpace(body) != want {
		t.Fatalf("query body = %q, want %q", body, want)
	}
}

func TestQueryCSV(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	post(t, ts.URL+"/api/v1/append?flush=1", "application/json",
		`[{"tid":1,"ts":0,"value":3},{"tid":1,"ts":1000,"value":5}]`, nil)
	h := http.Header{}
	h.Set("Accept", "text/csv")
	resp, body := post(t, ts.URL+"/api/v1/query", "text/plain",
		"SELECT Tid, TS, Value FROM DataPoint", h)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/csv" {
		t.Fatalf("content type = %q", ct)
	}
	want := "Tid,TS,Value\n1,0,3\n1,1000,5\n"
	if body != want {
		t.Fatalf("csv body = %q, want %q", body, want)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	cases := []struct {
		path, ct, body string
	}{
		{"/api/v1/append", "application/json", `{"points":`},                    // truncated JSON
		{"/api/v1/append", "application/json", `"nope"`},                        // wrong shape
		{"/api/v1/append", "application/json", `[{"ts":0,"value":1}]`},          // neither tid nor source
		{"/api/v1/append", "application/json", `[{"tid":99,"ts":0,"value":1}]`}, // unknown tid
		{"/api/v1/query", "application/json", `{}`},                             // no sql
		{"/api/v1/query", "text/plain", ""},                                     // empty body
		{"/api/v1/query", "text/plain", "SELECT Nope FROM Segment"},             // bad SQL
	}
	for _, c := range cases {
		resp, body := post(t, ts.URL+c.path, c.ct, c.body, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %q: status = %d body %q, want 400", c.path, c.body, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal([]byte(body), &e); err != nil || e["error"] == "" {
			t.Errorf("POST %s %q: error body %q is not {\"error\": ...}", c.path, c.body, body)
		}
	}
}

func TestMethodNotAllowed(t *testing.T) {
	ts, _, _ := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/api/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
	if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
		t.Fatalf("Allow = %q", allow)
	}
}

func TestBearerAuth(t *testing.T) {
	ts, _, reg := newTestServer(t, Options{Tokens: []Token{{Token: "secret"}}})

	// No token and a wrong token are 401 with a challenge.
	resp, _ := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("anonymous status = %d, want 401", resp.StatusCode)
	}
	if resp.Header.Get("WWW-Authenticate") == "" {
		t.Fatal("401 without WWW-Authenticate")
	}
	h := http.Header{}
	h.Set("Authorization", "Bearer wrong")
	if resp, _ := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", h); resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong-token status = %d, want 401", resp.StatusCode)
	}

	// The right token is admitted.
	h.Set("Authorization", "Bearer secret")
	if resp, body := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", h); resp.StatusCode != http.StatusOK {
		t.Fatalf("authorized status = %d body %q", resp.StatusCode, body)
	}

	snap := reg.Snapshot()
	if got := snap[`modelardb_http_rejected_total{endpoint="query",reason="unauthorized"}`]; got != 2 {
		t.Fatalf("unauthorized counter = %g, want 2", got)
	}
	if got := snap[`modelardb_http_requests_total{endpoint="query"}`]; got != 1 {
		t.Fatalf("requests counter = %g, want 1", got)
	}
}

func TestRateLimit(t *testing.T) {
	// Burst 1, 1 request/s: the first request passes, the second is
	// throttled with a Retry-After hint.
	ts, _, reg := newTestServer(t, Options{Tokens: []Token{{Token: "slow", Rate: 1}}})
	h := http.Header{}
	h.Set("Authorization", "Bearer slow")
	if resp, body := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", h); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d body %q", resp.StatusCode, body)
	}
	resp, _ := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", h)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if got := reg.Snapshot()[`modelardb_http_rejected_total{endpoint="query",reason="throttled"}`]; got != 1 {
		t.Fatalf("throttled counter = %g, want 1", got)
	}
}

func TestAnonymousRateLimit(t *testing.T) {
	// No tokens: one shared bucket enforces the default rate.
	ts, _, _ := newTestServer(t, Options{DefaultRate: 1})
	if resp, _ := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	if resp, _ := post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429", resp.StatusCode)
	}
}

func TestPerEndpointMetrics(t *testing.T) {
	ts, _, reg := newTestServer(t, Options{})
	post(t, ts.URL+"/api/v1/append?flush=1", "application/json", `[{"tid":1,"ts":0,"value":1},{"tid":1,"ts":1000,"value":1}]`, nil)
	post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT SUM_S(*) FROM Segment", nil)
	post(t, ts.URL+"/api/v1/query", "text/plain", "SELECT Broken FROM Segment", nil)
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		`modelardb_http_requests_total{endpoint="append"}`:       1,
		`modelardb_http_requests_total{endpoint="query"}`:        2,
		`modelardb_http_errors_total{endpoint="query"}`:          1,
		`modelardb_http_request_seconds_count{endpoint="query"}`: 2,
		// HTTP queries run through the engine's trace like any other.
		"modelardb_queries_total": 2,
	} {
		if snap[name] != want {
			t.Errorf("%s = %g, want %g", name, snap[name], want)
		}
	}
}
