package main

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"modelardb"
)

func testDB(t *testing.T) *modelardb.DB {
	t.Helper()
	db, err := modelardb.Open(modelardb.Config{
		ErrorBound: modelardb.RelBound(0),
		Dimensions: []modelardb.Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Series: []modelardb.SeriesConfig{
			{SI: 1000, Members: map[string][]string{"Location": {"A"}}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func send(t *testing.T, db *modelardb.DB, line string) string {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	handle(context.Background(), db, w, line)
	w.Flush()
	return buf.String()
}

func TestHandleAppendFlushStats(t *testing.T) {
	db := testDB(t)
	for i := 0; i < 3; i++ {
		out := send(t, db, "APPEND 1 "+strings.Repeat("0", 1)+" 5")
		_ = out
	}
	if out := send(t, db, "APPEND 1 1000 5"); out != "OK\n" {
		t.Fatalf("APPEND = %q", out)
	}
	if out := send(t, db, "FLUSH"); out != "OK\n" {
		t.Fatalf("FLUSH = %q", out)
	}
	out := send(t, db, "STATS")
	if !strings.HasPrefix(out, "OK ") {
		t.Fatalf("STATS = %q", out)
	}
	// STATS renders the registry snapshot under canonical metric names,
	// so every subsystem's instruments appear without per-field wiring.
	for _, field := range []string{
		"modelardb_series=1", "modelardb_groups=1", "modelardb_segments=",
		"modelardb_ingested_points_total=", "modelardb_queries_total=",
		"modelardb_query_folded_series_total=", "modelardb_query_decoded_points_total=",
		"modelardb_query_select_runs_total=",
	} {
		if !strings.Contains(out, " "+field) {
			t.Fatalf("STATS misses %s: %q", field, out)
		}
	}
	// No WAL configured: the WAL family must be absent, not zero-stuffed.
	if strings.Contains(out, "modelardb_wal_") {
		t.Fatalf("STATS reports WAL metrics without a WAL: %q", out)
	}
}

func TestHandleSelect(t *testing.T) {
	db := testDB(t)
	send(t, db, "APPEND 1 0 5")
	send(t, db, "APPEND 1 1000 5")
	send(t, db, "FLUSH")
	out := send(t, db, "SELECT SUM_S(*) FROM Segment")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 3 || lines[0] != "SUM_S(*)" || lines[1] != "10" || lines[2] != "." {
		t.Fatalf("SELECT = %q", out)
	}
}

func TestHandleErrors(t *testing.T) {
	db := testDB(t)
	cases := []string{
		"APPEND 1 2",    // arity
		"APPEND x y z",  // types
		"APPEND 99 0 1", // unknown tid
		"SELECT Nope FROM Segment",
		"BOGUS",
	}
	for _, line := range cases {
		if out := send(t, db, line); !strings.HasPrefix(out, "ERR ") {
			t.Errorf("handle(%q) = %q, want ERR", line, out)
		}
	}
}

func TestLoadCSVFile(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "d.csv")
	if err := os.WriteFile(path, []byte("tid,ts,value\n1,0,2\n1,1000,2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := loadCSV(db, path)
	if err != nil || n != 2 {
		t.Fatalf("loadCSV = %d, %v", n, err)
	}
	out := send(t, db, "SELECT COUNT_S(*) FROM Segment")
	if !strings.Contains(out, "\n2\n") {
		t.Fatalf("count after load = %q", out)
	}
}

// TestServeHangupCancelsInFlightQuery: the per-connection reader
// goroutine notices a client hangup while a query is still executing
// and cancels the connection context, aborting the in-flight scan —
// instead of the server streaming the whole result into a dead socket.
func TestServeHangupCancelsInFlightQuery(t *testing.T) {
	db := testDB(t)
	if err := db.Append(1, 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(1, 1000, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	entered := make(chan struct{})
	fired := make(chan struct{})
	var onceEnter, onceFire sync.Once
	// The hook blocks the scan mid-segment until the connection context
	// fires (with a fallback beyond every deadline asserted below), so
	// the hangup demonstrably lands while the query is in flight.
	db.Engine().SetScanHook(func(ctx context.Context) error {
		onceEnter.Do(func() { close(entered) })
		select {
		case <-ctx.Done():
			onceFire.Do(func() { close(fired) })
		case <-time.After(5 * time.Second):
		}
		return nil
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		serve(db, conn)
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write([]byte("SELECT SUM_S(*) FROM Segment\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("the query never reached the scan")
	}
	client.Close() // hang up mid-query
	select {
	case <-fired:
	case <-time.After(2 * time.Second):
		t.Fatal("connection context did not fire on hangup")
	}
	select {
	case <-serveDone:
	case <-time.After(2 * time.Second):
		t.Fatal("serve did not return after the hangup")
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db := testDB(t)
	path := filepath.Join(t.TempDir(), "bad.csv")
	os.WriteFile(path, []byte("1,0\n"), 0o644)
	if _, err := loadCSV(db, path); err == nil {
		t.Fatal("short row must fail")
	}
	if _, err := loadCSV(db, filepath.Join(t.TempDir(), "missing.csv")); err == nil {
		t.Fatal("missing file must fail")
	}
}
