package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/httpapi"
	"modelardb/internal/obs"
)

// apiServer mounts the HTTP API for db the way run does.
func apiServer(t *testing.T, db *modelardb.DB, opts httpapi.Options) *httptest.Server {
	t.Helper()
	opts.Metrics = obs.NewHTTPMetrics(db.Metrics(), httpapi.Endpoints)
	ts := httptest.NewServer(httpapi.New(db, opts).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// TestQueryEquivalence runs the same SQL over the line protocol, the
// HTTP JSON and CSV API, DB.WriteCSV and the in-process cursor and
// requires identical rows from all of them: the server surfaces are
// views over one engine and one row renderer, not separate query
// paths. The park members need CSV quoting (a comma and quotes, a
// leading space), and the CSV bodies are pinned byte for byte.
func TestQueryEquivalence(t *testing.T) {
	db, err := modelardb.Open(modelardb.Config{
		ErrorBound: modelardb.RelBound(0),
		Dimensions: []modelardb.Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Series: []modelardb.SeriesConfig{
			{SI: 1000, Members: map[string][]string{"Location": {`Aalborg, "North"`}}},
			{SI: 1000, Members: map[string][]string{"Location": {" Skive"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	ts := apiServer(t, db, httpapi.Options{})

	// Ingest over HTTP; read it back over every surface.
	resp, err := http.Post(ts.URL+"/api/v1/append?flush=1", "application/json",
		strings.NewReader(`[{"tid":1,"ts":0,"value":2},{"tid":1,"ts":1000,"value":4},{"tid":1,"ts":2000,"value":8.5},{"tid":2,"ts":0,"value":-1}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append status = %d", resp.StatusCode)
	}

	for _, tc := range []struct {
		sql     string
		want    [][]string // header first
		wantCSV string
	}{{
		sql:     "SELECT Tid, TS, Value FROM DataPoint",
		want:    [][]string{{"Tid", "TS", "Value"}, {"1", "0", "2"}, {"1", "1000", "4"}, {"1", "2000", "8.5"}, {"2", "0", "-1"}},
		wantCSV: "Tid,TS,Value\n1,0,2\n1,1000,4\n1,2000,8.5\n2,0,-1\n",
	}, {
		sql:     "SELECT Park, COUNT_S(*), SUM_S(*) FROM Segment GROUP BY Park ORDER BY Park",
		want:    [][]string{{"Park", "COUNT_S(*)", "SUM_S(*)"}, {" Skive", "1", "-1"}, {`Aalborg, "North"`, "3", "14.5"}},
		wantCSV: "Park,COUNT_S(*),SUM_S(*)\n\" Skive\",1,-1\n\"Aalborg, \"\"North\"\"\",3,14.5\n",
	}} {
		got := map[string][][]string{}

		// Line protocol: header, tab-separated rows, ".".
		out := send(t, db, tc.sql)
		if !strings.HasSuffix(out, "\n.\n") {
			t.Fatalf("line protocol output = %q", out)
		}
		for _, l := range strings.Split(strings.TrimSuffix(out, "\n.\n"), "\n") {
			got["line protocol"] = append(got["line protocol"], strings.Split(l, "\t"))
		}

		// HTTP JSON, numbers kept as their text.
		resp, err := http.Post(ts.URL+"/api/v1/query", "text/plain", strings.NewReader(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		var payload struct {
			Columns []string `json:"columns"`
			Rows    [][]any  `json:"rows"`
			Error   string   `json:"error"`
		}
		dec := json.NewDecoder(resp.Body)
		dec.UseNumber()
		err = dec.Decode(&payload)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if payload.Error != "" {
			t.Fatalf("HTTP query error: %s", payload.Error)
		}
		got["HTTP JSON"] = [][]string{payload.Columns}
		for _, r := range payload.Rows {
			got["HTTP JSON"] = append(got["HTTP JSON"], sprintCells(r))
		}

		// HTTP CSV, byte for byte and parsed back.
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/query", strings.NewReader(tc.sql))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", "text/csv")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if string(body) != tc.wantCSV {
			t.Errorf("%s: CSV body %q, want %q", tc.sql, body, tc.wantCSV)
		}
		if got["HTTP CSV"], err = csv.NewReader(bytes.NewReader(body)).ReadAll(); err != nil {
			t.Fatal(err)
		}

		// In-process cursor, cells formatted by fmt.
		rows, err := db.QueryRows(context.Background(), tc.sql)
		if err != nil {
			t.Fatal(err)
		}
		got["in-process"] = [][]string{rows.Columns()}
		for rows.Next() {
			got["in-process"] = append(got["in-process"], sprintCells(rows.Row()))
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		rows.Close()

		// DB.WriteCSV exports exactly the DataPoint rows, headerless.
		if strings.HasPrefix(tc.sql, "SELECT Tid, TS, Value FROM DataPoint") {
			var buf bytes.Buffer
			n, err := db.WriteCSV(context.Background(), &buf)
			if err != nil {
				t.Fatal(err)
			}
			if _, body, _ := strings.Cut(tc.wantCSV, "\n"); buf.String() != body || n != int64(len(tc.want)-1) {
				t.Errorf("WriteCSV wrote %d rows %q, want %q", n, buf.String(), body)
			}
		}

		for surface, rows := range got {
			if !reflect.DeepEqual(rows, tc.want) {
				t.Errorf("%s: %s rows = %q, want %q", tc.sql, surface, rows, tc.want)
			}
		}
	}
}

// sprintCells formats a row's cells with fmt, whose %v spells a float
// the way strconv's shortest 'g' does.
func sprintCells(cells []any) []string {
	out := make([]string, len(cells))
	for i, v := range cells {
		out[i] = fmt.Sprint(v)
	}
	return out
}

// TestHTTPRejections covers the documented rejection statuses: 401 for
// a missing token, 429 with Retry-After once a token's bucket is dry.
func TestHTTPRejections(t *testing.T) {
	db := testDB(t)
	ts := apiServer(t, db, httpapi.Options{Tokens: []httpapi.Token{{Token: "k", Rate: 1}}})

	resp, err := http.Post(ts.URL+"/api/v1/query", "text/plain", strings.NewReader("SELECT SUM_S(*) FROM Segment"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unauthenticated status = %d, want 401", resp.StatusCode)
	}

	query := func() *http.Response {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/api/v1/query", strings.NewReader("SELECT SUM_S(*) FROM Segment"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Authorization", "Bearer k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := query(); resp.StatusCode != http.StatusOK {
		t.Fatalf("first authorized query status = %d", resp.StatusCode)
	}
	resp = query()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
}

// TestMergeConfig checks flag-over-directive precedence.
func TestMergeConfig(t *testing.T) {
	cfg := modelardb.Config{
		QueryParallelism:   2,
		WALDir:             "/from/config",
		WALFsync:           "always",
		SlowQueryThreshold: time.Second,
		HTTPListen:         "127.0.0.1:1111",
	}
	// Unset flags leave every directive in force.
	merged := cfg
	mergeConfig(&merged, runOptions{parallelism: -1})
	if merged.QueryParallelism != 2 || merged.WALDir != "/from/config" ||
		merged.WALFsync != "always" || merged.SlowQueryThreshold != time.Second ||
		merged.HTTPListen != "127.0.0.1:1111" {
		t.Fatalf("unset flags changed the config: %+v", merged)
	}
	// Set flags win.
	merged = cfg
	mergeConfig(&merged, runOptions{
		dataDir: "/data", parallelism: 8, walDir: "/flag/wal",
		walFsync: "never", slowQuery: 5 * time.Second, httpListen: "127.0.0.1:2222",
	})
	if merged.Path != "/data" || merged.QueryParallelism != 8 ||
		merged.WALDir != "/flag/wal" || merged.WALFsync != "never" ||
		merged.SlowQueryThreshold != 5*time.Second || merged.HTTPListen != "127.0.0.1:2222" {
		t.Fatalf("flags did not win: %+v", merged)
	}
}
