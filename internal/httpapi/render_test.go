package httpapi

import (
	"context"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"modelardb"
)

// loadRange appends ticks points per series of testDB's two series,
// one per second from ts 0, and flushes them.
func loadRange(tb testing.TB, db *modelardb.DB, ticks int) {
	tb.Helper()
	pts := make([]modelardb.DataPoint, 0, 2*ticks)
	for i := range ticks {
		for tid := modelardb.Tid(1); tid <= 2; tid++ {
			v := float32(100 * math.Sin(float64(i)/50+float64(tid)))
			pts = append(pts, modelardb.DataPoint{Tid: tid, TS: int64(i) * 1000, Value: v})
		}
	}
	if err := db.AppendBatch(context.Background(), pts); err != nil {
		tb.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
}

// hungUpWriter is a ResponseWriter whose client goes away after the
// first write: every later Write fails.
type hungUpWriter struct {
	header http.Header
	writes int
}

func (w *hungUpWriter) Header() http.Header { return w.header }

func (w *hungUpWriter) WriteHeader(int) {}

func (w *hungUpWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > 1 {
		return 0, errors.New("client hung up")
	}
	return len(p), nil
}

// TestQueryStopsOnFailedWrite checks that a render stops at the first
// block the client cannot take. An ORDER BY cursor is finalized and
// never looks at its context again, so only the failed write can stop
// it: rows must be left over once the render returns.
func TestQueryStopsOnFailedWrite(t *testing.T) {
	db := testDB(t)
	loadRange(t, db, 12000) // about 300 KB either way: at least 4 blocks
	s := New(db, Options{})
	for name, render := range map[string]func(string, http.ResponseWriter, *modelardb.Rows){
		"csv":  s.streamCSV,
		"json": s.streamJSON,
	} {
		rows, err := db.QueryRows(context.Background(), "SELECT Tid, TS, Value FROM DataPoint ORDER BY TS DESC")
		if err != nil {
			t.Fatal(err)
		}
		w := &hungUpWriter{header: http.Header{}}
		render("query", w, rows)
		if w.writes != 2 {
			t.Errorf("%s: %d writes, want the render to stop at the failed second", name, w.writes)
		}
		if !rows.Next() {
			t.Errorf("%s: the render drained the cursor into a dead connection", name)
		}
		rows.Close()
	}
}

// BenchmarkQueryCSV sends a DataPoint range of 24 000 rows through the
// handler as CSV: the HTTP front end's render cost per query, on top
// of the scan beneath it.
func BenchmarkQueryCSV(b *testing.B) {
	db := testDB(b)
	loadRange(b, db, 15000)
	const sql = "SELECT Tid, TS, Value FROM DataPoint WHERE TS >= 1000000 AND TS < 13000000"
	h := New(db, Options{}).Handler()
	query := func() *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/query", strings.NewReader(sql))
		req.Header.Set("Accept", "text/csv")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	rec := query()
	if rec.Code != http.StatusOK || strings.Count(rec.Body.String(), "\n") != 24001 {
		b.Fatalf("warm-up: HTTP %d, %d lines", rec.Code, strings.Count(rec.Body.String(), "\n"))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if rec := query(); rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
}
