package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"modelardb"
	"modelardb/internal/cluster"
	"modelardb/internal/core"
	"modelardb/internal/httpapi"
)

// answer is one consumed query reply: a Result's rows, or the raw CSV
// body of an HTTP reply, parsed only when something needs the cells.
type answer struct {
	raw []byte
	t   *table
}

// table returns the reply's cells, parsing a CSV body on first use.
func (a *answer) table() (*table, error) {
	if a.t != nil {
		return a.t, nil
	}
	recs, err := csv.NewReader(bytes.NewReader(a.raw)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("csv reply: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("csv reply has no header row")
	}
	t := &table{cols: recs[0]}
	for _, rec := range recs[1:] {
		row := make([]any, len(rec))
		for i, cell := range rec {
			if n, err := strconv.ParseInt(cell, 10, 64); err == nil {
				row[i] = n
			} else if f, err := strconv.ParseFloat(cell, 64); err == nil {
				row[i] = f
			} else {
				row[i] = cell
			}
		}
		t.rows = append(t.rows, row)
	}
	a.t = t
	return t, nil
}

// same reports whether two replies to one query are identical, the
// cheap path for re-verifying an answer that was already checked
// against the oracle.
func (a *answer) same(b *answer) bool {
	if a.raw != nil || b.raw != nil {
		return bytes.Equal(a.raw, b.raw)
	}
	if len(a.t.rows) != len(b.t.rows) {
		return false
	}
	for i, ra := range a.t.rows {
		rb := b.t.rows[i]
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}

// loadSample is what one bulk load of the inputs measured.
type loadSample struct {
	pointsPerS    float64   // points ÷ (first append → Flush returned)
	appendMs      []float64 // latency of every append op
	bytesPerPoint float64   // StorageBytes ÷ DataPoints after the Flush
}

// instance is one system under test, set up from nothing: a local DB
// (ingest_bulk, agg_*), two TCP workers behind a cluster master
// (scatter_tcp2), or a DB behind the HTTP API (mixed_http). Everything
// it owns lives under dir and dies with close.
type instance struct {
	in  *inputs
	dir string
	cfg modelardb.Config

	db *modelardb.DB // local and HTTP workloads

	workers []*modelardb.DB // scatter_tcp2
	client  *cluster.Client
	cancel  context.CancelFunc
	lns     []net.Listener
	served  sync.WaitGroup

	srv    *http.Server // mixed_http
	url    string
	writer *http.Client // connection A
	reader *http.Client // connection B
}

// open builds the workload's system in a fresh directory under tmp.
func open(in *inputs, tmp string) (*instance, error) {
	dir, err := os.MkdirTemp(tmp, in.def.name+"-")
	if err != nil {
		return nil, err
	}
	inst := &instance{in: in, dir: dir, cfg: in.cfg}
	if in.onDisk {
		inst.cfg.Path = filepath.Join(dir, "data")
	}
	if in.withWAL {
		inst.cfg.WALDir = filepath.Join(dir, "wal")
	}
	if err := inst.start(); err != nil {
		inst.close()
		return nil, err
	}
	return inst, nil
}

func (inst *instance) start() error {
	switch inst.in.def.name {
	case wScatterTCP2:
		ctx, cancel := context.WithCancel(context.Background())
		inst.cancel = cancel
		var addrs []string
		for w := 0; w < 2; w++ {
			db, err := modelardb.Open(inst.cfg)
			if err != nil {
				return err
			}
			inst.workers = append(inst.workers, db)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				return err
			}
			inst.lns = append(inst.lns, ln)
			srv := cluster.NewServer(db)
			inst.served.Add(1)
			go func() {
				defer inst.served.Done()
				srv.Serve(ctx, ln) // returns when ln closes
			}()
			addrs = append(addrs, ln.Addr().String())
		}
		client, err := cluster.Dial(inst.cfg, addrs)
		if err != nil {
			return err
		}
		inst.client = client
		return nil
	default:
		db, err := modelardb.Open(inst.cfg)
		if err != nil {
			return err
		}
		inst.db = db
		if inst.in.def.name != wMixedHTTP {
			return nil
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		inst.srv = &http.Server{Handler: httpapi.New(db, httpapi.Options{}).Handler()}
		inst.served.Add(1)
		go func() {
			defer inst.served.Done()
			inst.srv.Serve(ln) // returns on Shutdown
		}()
		inst.url = "http://" + ln.Addr().String()
		// One keep-alive connection per client goroutine.
		inst.writer = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		inst.reader = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
		return nil
	}
}

// close stops every listener, waits for the serving goroutines, closes
// the databases and removes the directory.
func (inst *instance) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if inst.client != nil {
		keep(inst.client.Close())
	}
	if inst.srv != nil {
		inst.writer.CloseIdleConnections()
		inst.reader.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		keep(inst.srv.Shutdown(ctx))
		cancel()
	}
	for _, ln := range inst.lns {
		ln.Close()
	}
	if inst.cancel != nil {
		inst.cancel()
	}
	inst.served.Wait()
	if inst.db != nil {
		keep(inst.db.Close())
	}
	for _, db := range inst.workers {
		keep(db.Close())
	}
	keep(os.RemoveAll(inst.dir))
	return first
}

// appendBatch is one append op through the workload's bulk write path:
// DB.AppendBatch locally, a run of Client.Append calls on the cluster.
func (inst *instance) appendBatch(ctx context.Context, pts []core.DataPoint) error {
	if inst.client == nil {
		return inst.db.AppendBatch(ctx, pts)
	}
	for _, p := range pts {
		if err := inst.client.Append(ctx, p.Tid, p.TS, p.Value); err != nil {
			return err
		}
	}
	return nil
}

func (inst *instance) flush(ctx context.Context) error {
	if inst.client != nil {
		return inst.client.Flush(ctx)
	}
	return inst.db.Flush()
}

// stats reads the footprint the way a user would: Stats() of the DB or
// of the whole cluster.
func (inst *instance) stats(ctx context.Context) (modelardb.Stats, error) {
	if inst.client != nil {
		return inst.client.Stats(ctx)
	}
	return inst.db.Stats()
}

// load appends the inputs' points in batchPoints batches and flushes.
func (inst *instance) load(ctx context.Context) (loadSample, error) {
	pts := inst.in.points
	s := loadSample{appendMs: make([]float64, 0, len(pts)/batchPoints+1)}
	start := time.Now()
	for i := 0; i < len(pts); i += batchPoints {
		t0 := time.Now()
		if err := inst.appendBatch(ctx, pts[i:min(i+batchPoints, len(pts))]); err != nil {
			return s, fmt.Errorf("append at point %d: %w", i, err)
		}
		s.appendMs = append(s.appendMs, ms(time.Since(t0)))
	}
	if err := inst.flush(ctx); err != nil {
		return s, fmt.Errorf("flush: %w", err)
	}
	s.pointsPerS = float64(len(pts)) / time.Since(start).Seconds()
	st, err := inst.stats(ctx)
	if err != nil {
		return s, err
	}
	if st.DataPoints != int64(len(pts)) {
		return s, fmt.Errorf("stats report %d points after loading %d", st.DataPoints, len(pts))
	}
	s.bytesPerPoint = float64(st.StorageBytes) / float64(st.DataPoints)
	return s, nil
}

// query sends SQL text through the workload's read path and consumes
// the whole reply: DB.Query, Client.Query, or a text/csv POST.
func (inst *instance) query(ctx context.Context, sql string) (*answer, error) {
	switch {
	case inst.srv != nil:
		raw, err := post(ctx, inst.reader, inst.url+"/api/v1/query", "text/plain", "text/csv", []byte(sql))
		if err != nil {
			return nil, err
		}
		return &answer{raw: raw}, nil
	case inst.client != nil:
		res, err := inst.client.Query(ctx, sql)
		if err != nil {
			return nil, err
		}
		return &answer{t: &table{cols: res.Columns, rows: res.Rows}}, nil
	default:
		res, err := inst.db.Query(ctx, sql)
		if err != nil {
			return nil, err
		}
		return &answer{t: &table{cols: res.Columns, rows: res.Rows}}, nil
	}
}

// post issues one request and reads the reply to its end; anything but
// a 200 is an error.
func post(ctx context.Context, c *http.Client, url, contentType, accept string, body []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// reopenCount closes the local DB, opens it again from the same
// directories and counts what survived — the durability check.
func (inst *instance) reopenCount(ctx context.Context) (int64, error) {
	if err := inst.db.Close(); err != nil {
		return 0, fmt.Errorf("close: %w", err)
	}
	db, err := modelardb.Open(inst.cfg)
	if err != nil {
		inst.db = nil
		return 0, fmt.Errorf("reopen: %w", err)
	}
	inst.db = db
	res, err := db.Query(ctx, "SELECT COUNT_S(*) FROM Segment")
	if err != nil {
		return 0, err
	}
	if len(res.Rows) != 1 {
		return 0, nil
	}
	n, _ := num(res.Rows[0][0])
	return int64(n), nil
}
