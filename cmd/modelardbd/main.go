// Command modelardbd runs a ModelarDB server: it opens a database from
// a configuration file, optionally bulk loads a CSV file, and serves a
// line-oriented protocol over TCP:
//
//	SELECT ...                 run a SQL query; response is one header
//	                           line, one tab-separated line per row and
//	                           a terminating "." line
//	APPEND <tid> <ts> <value>  ingest one data point
//	FLUSH                      finalize buffered data points
//	STATS                      report database statistics
//	QUIT                       close the connection
//
// Errors are reported as "ERR <message>" lines.
//
// End-of-input on the connection — a close, or a half-close of the
// client's write side — is treated as a hangup: any in-flight query is
// cancelled immediately rather than streamed into a possibly dead
// socket. Clients must therefore keep the connection open until the
// terminating "." of the last response arrives (modelardb-cli does),
// or end the session with QUIT.
//
// With -cluster-listen the daemon additionally serves the cluster
// worker transport on that address, so a modelardbd process can be a
// worker in a multi-process cluster (a master connects with
// cluster.Dial); combined with -wal the worker's acknowledged batches
// — and the exactly-once dedup table protecting them — survive a
// restart.
//
// With -http (or the http_listen config directive) the daemon serves
// an HTTP endpoint on that address: the admin surface — /metrics
// (Prometheus text exposition of every ingest, query, WAL, RPC and
// HTTP instrument), /statusz (the same snapshot as JSON) and
// /debug/pprof — plus the JSON API under /api/v1 (append, query and
// Prometheus remote-write ingest; see docs/http-api.md). -http-api
// serves the /api/v1 surface alone on a second address, so the API
// can face clients while the admin surface stays on loopback.
// Bearer-token auth and per-token rate limits for /api/v1 come from
// the http_token and http_rate_limit config directives. -slow-query
// logs any query at or above the given latency with its per-stage
// timings; queries arriving over HTTP are traced and logged exactly
// like line-protocol ones.
//
// Usage:
//
//	modelardbd -config wind.conf [-data /var/lib/modelardb] \
//	           [-wal /var/lib/modelardb/wal] [-wal-fsync interval] \
//	           [-load data.csv] [-listen 127.0.0.1:8989] \
//	           [-cluster-listen 127.0.0.1:9090] \
//	           [-http 127.0.0.1:9100] [-http-api 0.0.0.0:9101] \
//	           [-slow-query 250ms]
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"modelardb"
	"modelardb/internal/cluster"
	"modelardb/internal/config"
	"modelardb/internal/httpapi"
	"modelardb/internal/obs"
)

func main() {
	configPath := flag.String("config", "", "configuration file (required)")
	dataDir := flag.String("data", "", "storage directory; empty = in-memory")
	load := flag.String("load", "", "CSV file (tid,ts,value) to bulk load at startup")
	listen := flag.String("listen", "127.0.0.1:8989", "listen address")
	parallelism := flag.Int("parallelism", -1,
		"query scan workers: 0 = all cores, 1 = one worker, in the caller's goroutine, -1 = from config file")
	walDir := flag.String("wal", "",
		"write-ahead log directory; empty = from config file (acknowledged appends survive a crash)")
	walFsync := flag.String("wal-fsync", "",
		"WAL durability policy: always, interval or never; empty = from config file")
	clusterListen := flag.String("cluster-listen", "",
		"also serve the cluster worker transport on this address (masters connect with cluster.Dial)")
	httpListen := flag.String("http", "",
		"serve the HTTP endpoint (admin surface + /api/v1) on this address; empty = from config file (http_listen)")
	httpAPIListen := flag.String("http-api", "",
		"additionally serve the /api/v1 JSON API alone on this address; empty = disabled")
	slowQuery := flag.Duration("slow-query", 0,
		"log queries at or above this end-to-end latency with per-stage timings; 0 = from config file")
	flag.Parse()
	if *configPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	opts := runOptions{
		dataDir: *dataDir, load: *load, listen: *listen,
		parallelism: *parallelism, walDir: *walDir, walFsync: *walFsync,
		clusterListen: *clusterListen, httpListen: *httpListen,
		httpAPIListen: *httpAPIListen, slowQuery: *slowQuery,
	}
	if err := run(*configPath, opts); err != nil {
		log.Fatal(err)
	}
}

// runOptions carries the flag overrides into run.
type runOptions struct {
	dataDir       string
	load          string
	listen        string
	parallelism   int
	walDir        string
	walFsync      string
	clusterListen string
	httpListen    string
	httpAPIListen string
	slowQuery     time.Duration
}

// mergeConfig folds the flag overrides into the parsed configuration:
// a flag that was set wins over its config-file directive, an unset
// flag leaves the directive in force.
func mergeConfig(cfg *modelardb.Config, opts runOptions) {
	cfg.Path = opts.dataDir
	if opts.parallelism >= 0 {
		cfg.QueryParallelism = opts.parallelism
	}
	if opts.walDir != "" {
		cfg.WALDir = opts.walDir
	}
	if opts.walFsync != "" {
		cfg.WALFsync = opts.walFsync
	}
	if opts.slowQuery > 0 {
		cfg.SlowQueryThreshold = opts.slowQuery
	}
	if opts.httpListen != "" {
		cfg.HTTPListen = opts.httpListen
	}
}

func run(configPath string, opts runOptions) error {
	f, err := os.Open(configPath)
	if err != nil {
		return err
	}
	cfg, err := config.Parse(f)
	f.Close()
	if err != nil {
		return err
	}
	mergeConfig(&cfg, opts)
	db, err := modelardb.Open(cfg)
	if err != nil {
		return err
	}
	defer db.Close()
	if opts.load != "" {
		n, err := loadCSV(db, opts.load)
		if err != nil {
			return fmt.Errorf("load %s: %w", opts.load, err)
		}
		log.Printf("loaded %d data points from %s", n, opts.load)
	}
	// One API server backs both HTTP mounts: the admin endpoint's
	// /api/v1 routes and the dedicated -http-api listener share the
	// token table (and so the rate-limit buckets) and the per-endpoint
	// metrics.
	api := httpapi.New(db, httpapi.Options{
		Tokens:      cfg.HTTPTokens,
		DefaultRate: cfg.HTTPRateLimit,
		Metrics:     obs.NewHTTPMetrics(db.Metrics(), httpapi.Endpoints),
	})
	if cfg.HTTPListen != "" {
		aln, err := startAdmin(db, cfg.HTTPListen, api)
		if err != nil {
			return err
		}
		defer aln.Close()
		log.Printf("modelardbd admin endpoint on %s", aln.Addr())
	}
	if opts.httpAPIListen != "" {
		apiLn, err := net.Listen("tcp", opts.httpAPIListen)
		if err != nil {
			return err
		}
		defer apiLn.Close()
		log.Printf("modelardbd HTTP API on %s", apiLn.Addr())
		go func() {
			if err := http.Serve(apiLn, api.Handler()); err != nil && !errors.Is(err, net.ErrClosed) {
				log.Printf("HTTP API stopped: %v", err)
			}
		}()
	}
	if opts.clusterListen != "" {
		cln, err := net.Listen("tcp", opts.clusterListen)
		if err != nil {
			return err
		}
		defer cln.Close()
		log.Printf("modelardbd serving cluster transport on %s", cln.Addr())
		go func() {
			if err := cluster.NewServer(db).Serve(context.Background(), cln); err != nil {
				log.Printf("cluster transport stopped: %v", err)
			}
		}()
	}
	ln, err := net.Listen("tcp", opts.listen)
	if err != nil {
		return err
	}
	log.Printf("modelardbd listening on %s (series=%d groups=%d)",
		ln.Addr(), db.NumSeries(), len(db.Groups()))
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go serve(db, conn)
	}
}

// loadCSV ingests a tid,ts,value file through the group-sharded batch
// path and flushes the result.
func loadCSV(db *modelardb.DB, path string) (int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n, err := db.LoadCSV(context.Background(), f)
	if err != nil {
		return n, err
	}
	return n, db.Flush()
}

func serve(db *modelardb.DB, conn net.Conn) {
	defer conn.Close()
	// The connection context bounds every query issued on it: when the
	// client goes away the in-flight scan is cancelled and the executor
	// pool drained instead of running the query to completion.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// A dedicated reader goroutine is the only reader of the socket and
	// hands complete lines to the processing loop. That way a client
	// hangup is noticed while a query is still executing — the read
	// fails immediately, the connection context is cancelled and the
	// in-flight scan aborts — instead of only when the next response
	// write hits the dead socket.
	lines := make(chan string)
	go func() {
		defer cancel()
		defer close(lines)
		scanner := bufio.NewScanner(conn)
		scanner.Buffer(make([]byte, 1<<20), 1<<20)
		for scanner.Scan() {
			line := strings.TrimSpace(scanner.Text())
			if line == "" {
				continue
			}
			select {
			case lines <- line:
			case <-ctx.Done():
				return
			}
		}
	}()
	w := bufio.NewWriter(conn)
	for line := range lines {
		if strings.EqualFold(line, "QUIT") {
			return
		}
		handle(ctx, db, w, line)
		if err := w.Flush(); err != nil {
			return
		}
	}
}

func handle(ctx context.Context, db *modelardb.DB, w *bufio.Writer, line string) {
	verb := strings.ToUpper(strings.Fields(line)[0])
	switch verb {
	case "SELECT":
		// Stream the result: rows reach the client as the scan produces
		// them, so a huge export does not materialize server-side first.
		rows, err := db.QueryRows(ctx, line)
		if err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		defer rows.Close()
		// A WriteText block is larger than w's buffer, so it reaches the
		// connection at once: a client that hung up surfaces as a write
		// error, and the deferred Close cancels the scan.
		buf, _, err := rows.WriteText(w, rows.AppendHeader(nil, modelardb.TextTSV), modelardb.TextTSV)
		if err != nil {
			return
		}
		w.Write(buf)
		if err := rows.Err(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, ".")
	case "APPEND":
		fields := strings.Fields(line)
		if len(fields) != 4 {
			fmt.Fprintln(w, "ERR usage: APPEND <tid> <ts> <value>")
			return
		}
		tid, err1 := strconv.Atoi(fields[1])
		ts, err2 := strconv.ParseInt(fields[2], 10, 64)
		v, err3 := strconv.ParseFloat(fields[3], 32)
		if err1 != nil || err2 != nil || err3 != nil {
			fmt.Fprintln(w, "ERR usage: APPEND <tid> <ts> <value>")
			return
		}
		if err := db.Append(modelardb.Tid(tid), ts, float32(v)); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	case "FLUSH":
		if err := db.Flush(); err != nil {
			fmt.Fprintf(w, "ERR %v\n", err)
			return
		}
		fmt.Fprintln(w, "OK")
	case "STATS":
		// Render the registry snapshot directly: every metric a
		// subsystem registers — ingest and query counters, WAL
		// backpressure signals, RPC gauges — appears here without any
		// per-field wiring, under its canonical /metrics name.
		snap := db.Snapshot()
		names := make([]string, 0, len(snap))
		for name := range snap {
			names = append(names, name)
		}
		sort.Strings(names)
		w.WriteString("OK")
		for _, name := range names {
			w.WriteString(" " + name + "=" + obs.FormatValue(snap[name]))
		}
		w.WriteString("\n")
	default:
		fmt.Fprintf(w, "ERR unknown command %q\n", verb)
	}
}
