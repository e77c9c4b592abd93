// Package config parses the textual configuration file used by the
// modelardbd server, mirroring how the paper's system is configured
// through modelardb.correlation clauses and related settings (§4.1,
// Table 1).
//
// Syntax (one directive per line, '#' comments):
//
//	error_bound 5            # percent; 0 = lossless
//	length_limit 50
//	split_fraction 10
//	bulk_write_size 50000
//	# query scan workers: 0 = all cores, 1 = one worker, in the caller's goroutine
//	query_parallelism 0
//	# per-call deadline for cluster RPCs (master side); 0 = none
//	rpc_timeout 5s
//	# how long a master retries a call over a dead worker connection
//	# (exponential backoff + jitter); 0 = one immediate reconnect
//	retry_budget 30s
//	# point-level write-ahead log: directory, fsync policy
//	# (always|interval|never) and segment rotation size
//	wal_dir /var/lib/modelardb/wal
//	wal_fsync interval
//	wal_segment_bytes 16777216
//	# background fsync cadence under wal_fsync interval; 0 = default
//	wal_sync_interval 100ms
//	# streamed partial-result chunk bound for cluster scatters;
//	# 0 = default (1 MiB)
//	stream_chunk_bytes 1048576
//	# log queries at or above this end-to-end latency with per-stage
//	# timings; 0 = disabled
//	slow_query_threshold 250ms
//	# HTTP endpoint (admin surface + /api/v1 JSON API); the daemon's
//	# -http flag overrides it
//	http_listen 127.0.0.1:9100
//	# bearer tokens accepted by the HTTP API, each with an optional
//	# per-token rate limit (requests/second); no tokens = open API
//	http_token wind-park-ingest 500
//	http_token grafana-reader
//	# default per-token request rate (token bucket); 0 = unlimited
//	http_rate_limit 100
//	dimension Location Park Turbine
//	correlation Location 1
//	series s1.gz 100 Location=Aalborg/T1
package config

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"modelardb"
	"modelardb/internal/wal"
)

// Parse reads a configuration into a modelardb.Config.
func Parse(r io.Reader) (modelardb.Config, error) {
	cfg := modelardb.Config{}
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := strings.TrimSpace(scanner.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		directive, rest, _ := strings.Cut(line, " ")
		rest = strings.TrimSpace(rest)
		if err := apply(&cfg, directive, rest); err != nil {
			return cfg, fmt.Errorf("config: line %d: %w", lineNo, err)
		}
	}
	if err := scanner.Err(); err != nil {
		return cfg, fmt.Errorf("config: %w", err)
	}
	return cfg, nil
}

func apply(cfg *modelardb.Config, directive, rest string) error {
	switch directive {
	case "error_bound":
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("error_bound %q is not a non-negative number", rest)
		}
		cfg.ErrorBound = modelardb.RelBound(v)
	case "length_limit":
		v, err := strconv.Atoi(rest)
		if err != nil || v < 1 {
			return fmt.Errorf("length_limit %q is not a positive integer", rest)
		}
		cfg.LengthLimit = v
	case "split_fraction":
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("split_fraction %q is not a positive number", rest)
		}
		cfg.SplitFraction = v
	case "bulk_write_size":
		v, err := strconv.Atoi(rest)
		if err != nil || v < 1 {
			return fmt.Errorf("bulk_write_size %q is not a positive integer", rest)
		}
		cfg.BulkWriteSize = v
	case "query_parallelism":
		v, err := strconv.Atoi(rest)
		if err != nil || v < 0 {
			return fmt.Errorf("query_parallelism %q is not a non-negative integer", rest)
		}
		cfg.QueryParallelism = v
	case "rpc_timeout":
		v, err := time.ParseDuration(rest)
		if err != nil || v < 0 {
			return fmt.Errorf("rpc_timeout %q is not a non-negative duration (e.g. 5s)", rest)
		}
		cfg.RPCTimeout = v
	case "retry_budget":
		v, err := time.ParseDuration(rest)
		if err != nil || v < 0 {
			return fmt.Errorf("retry_budget %q is not a non-negative duration (e.g. 30s)", rest)
		}
		cfg.RetryBudget = v
	case "wal_dir":
		if rest == "" {
			return fmt.Errorf("wal_dir needs a directory path")
		}
		cfg.WALDir = rest
	case "wal_fsync":
		if _, err := wal.ParsePolicy(rest); err != nil || rest == "" {
			return fmt.Errorf("wal_fsync %q is not one of always, interval, never", rest)
		}
		cfg.WALFsync = rest
	case "wal_segment_bytes":
		v, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("wal_segment_bytes %q is not a positive integer", rest)
		}
		cfg.WALSegmentBytes = v
	case "wal_sync_interval":
		v, err := time.ParseDuration(rest)
		if err != nil || v < 0 {
			return fmt.Errorf("wal_sync_interval %q is not a non-negative duration (e.g. 100ms)", rest)
		}
		cfg.WALSyncInterval = v
	case "slow_query_threshold":
		v, err := time.ParseDuration(rest)
		if err != nil || v < 0 {
			return fmt.Errorf("slow_query_threshold %q is not a non-negative duration (e.g. 250ms)", rest)
		}
		cfg.SlowQueryThreshold = v
	case "stream_chunk_bytes":
		v, err := strconv.ParseInt(rest, 10, 64)
		if err != nil || v < 1 {
			return fmt.Errorf("stream_chunk_bytes %q is not a positive integer", rest)
		}
		cfg.StreamChunkBytes = v
	case "http_listen":
		if rest == "" {
			return fmt.Errorf("http_listen needs a listen address (e.g. 127.0.0.1:9100)")
		}
		cfg.HTTPListen = rest
	case "http_token":
		fields := strings.Fields(rest)
		if len(fields) == 0 || len(fields) > 2 {
			return fmt.Errorf("http_token needs a token and at most one rate limit")
		}
		tok := modelardb.HTTPToken{Token: fields[0]}
		if len(fields) == 2 {
			v, err := strconv.ParseFloat(fields[1], 64)
			if err != nil || v <= 0 {
				return fmt.Errorf("http_token rate %q is not a positive requests-per-second number", fields[1])
			}
			tok.Rate = v
		}
		for _, existing := range cfg.HTTPTokens {
			if existing.Token == tok.Token {
				return fmt.Errorf("http_token %q declared twice", tok.Token)
			}
		}
		cfg.HTTPTokens = append(cfg.HTTPTokens, tok)
	case "http_rate_limit":
		v, err := strconv.ParseFloat(rest, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("http_rate_limit %q is not a non-negative requests-per-second number", rest)
		}
		cfg.HTTPRateLimit = v
	case "dimension":
		fields := strings.Fields(rest)
		if len(fields) < 2 {
			return fmt.Errorf("dimension needs a name and at least one level")
		}
		cfg.Dimensions = append(cfg.Dimensions, modelardb.Dimension{
			Name: fields[0], Levels: fields[1:],
		})
	case "correlation":
		if rest == "" {
			return fmt.Errorf("correlation needs a clause")
		}
		cfg.Correlations = append(cfg.Correlations, rest)
	case "series":
		sc, err := parseSeries(rest)
		if err != nil {
			return err
		}
		cfg.Series = append(cfg.Series, sc)
	default:
		return fmt.Errorf("unknown directive %q", directive)
	}
	return nil
}

// parseSeries parses "source si Dim=a/b Dim2=c/d".
func parseSeries(rest string) (modelardb.SeriesConfig, error) {
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		return modelardb.SeriesConfig{}, fmt.Errorf("series needs a source and a sampling interval")
	}
	si, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || si <= 0 {
		return modelardb.SeriesConfig{}, fmt.Errorf("sampling interval %q is not a positive integer", fields[1])
	}
	sc := modelardb.SeriesConfig{
		Source:  fields[0],
		SI:      si,
		Members: map[string][]string{},
	}
	for _, f := range fields[2:] {
		dim, path, ok := strings.Cut(f, "=")
		if !ok {
			return modelardb.SeriesConfig{}, fmt.Errorf("member %q is not Dimension=a/b", f)
		}
		sc.Members[dim] = strings.Split(path, "/")
	}
	return sc, nil
}
