#!/usr/bin/env bash
# Observability smoke: boots a real modelardbd with the admin endpoint
# enabled, bulk loads a few points, runs one query over the line
# protocol, drives an authenticated append + query through the HTTP
# API (and asserts the 401 path), and then asserts the full admin
# surface end to end — /metrics exposes the ingest/query/WAL/RPC/HTTP
# families with the expected live values, /statusz parses as a JSON
# snapshot, /debug/pprof/heap answers, and the slow-query log fired
# with per-stage timings.
# Run via `make obs-smoke`, which builds the two binaries first.
set -eu

DAEMON=${1:?usage: obs_smoke.sh path/to/modelardbd path/to/modelardb-cli}
CLI=${2:?usage: obs_smoke.sh path/to/modelardbd path/to/modelardb-cli}
DIR=$(mktemp -d)
PID=
cleanup() {
	[ -n "$PID" ] && kill "$PID" 2>/dev/null
	rm -rf "$DIR"
}
trap cleanup EXIT

fail() {
	echo "obs-smoke: $1" >&2
	shift
	for f in "$@"; do
		echo "--- $f ---" >&2
		cat "$f" >&2
	done
	exit 1
}

cat >"$DIR/smoke.conf" <<'EOF'
error_bound 0
dimension Location Park
series s1 1000 Location=A
series s2 1000 Location=B
# 1ns: every query counts as slow, so the smoke can assert the log line.
slow_query_threshold 1ns
# The HTTP API requires this bearer token (the admin surface stays open).
http_token smoke-token
EOF
printf 'tid,ts,value\n1,0,5\n1,1000,5\n2,0,7\n2,1000,7\n' >"$DIR/points.csv"

# Ephemeral ports everywhere; the daemon logs the resolved addresses.
# -wal and -cluster-listen are on so the WAL and RPC metric families
# register and appear in the exposition.
"$DAEMON" -config "$DIR/smoke.conf" -load "$DIR/points.csv" \
	-listen 127.0.0.1:0 -http 127.0.0.1:0 -cluster-listen 127.0.0.1:0 \
	-wal "$DIR/wal" >"$DIR/out.log" 2>&1 &
PID=$!

for _ in $(seq 1 100); do
	grep -q 'modelardbd listening on' "$DIR/out.log" && break
	kill -0 "$PID" 2>/dev/null || fail "daemon exited during startup" "$DIR/out.log"
	sleep 0.1
done
ADMIN=$(sed -n 's/.*admin endpoint on \([0-9.:]*\).*/\1/p' "$DIR/out.log")
ADDR=$(sed -n 's/.*modelardbd listening on \([0-9.:]*\).*/\1/p' "$DIR/out.log")
[ -n "$ADMIN" ] && [ -n "$ADDR" ] || fail "missing resolved addresses" "$DIR/out.log"

echo 'SELECT SUM_S(*) FROM Segment' | "$CLI" -addr "$ADDR" >"$DIR/query.out"
grep -q '^24$' "$DIR/query.out" || fail "unexpected query result" "$DIR/query.out"

# The HTTP API, mounted on the same endpoint: an unauthenticated
# request is a 401, an authenticated append (source-addressed) and
# query round-trip, and both show up in the per-endpoint metrics.
code=$(curl -s -o "$DIR/unauth.out" -w '%{http_code}' -X POST \
	-d 'SELECT SUM_S(*) FROM Segment' "http://$ADMIN/api/v1/query")
[ "$code" = 401 ] || fail "unauthenticated query returned $code, want 401" "$DIR/unauth.out"

curl -fsS -X POST -H 'Authorization: Bearer smoke-token' \
	-H 'Content-Type: application/json' \
	-d '{"points":[{"source":"s1","ts":2000,"value":1},{"source":"s1","ts":3000,"value":1}],"flush":true}' \
	"http://$ADMIN/api/v1/append" >"$DIR/append.out" ||
	fail "HTTP append failed" "$DIR/append.out" "$DIR/out.log"
grep -q '"appended":2' "$DIR/append.out" || fail "unexpected append response" "$DIR/append.out"

curl -fsS -X POST -H 'Authorization: Bearer smoke-token' \
	-d 'SELECT SUM_S(*) FROM Segment' "http://$ADMIN/api/v1/query" >"$DIR/httpquery.out" ||
	fail "HTTP query failed" "$DIR/out.log"
grep -q '"rows":\[\[26\]\]' "$DIR/httpquery.out" || fail "unexpected HTTP query result" "$DIR/httpquery.out"

curl -fsS "http://$ADMIN/metrics" >"$DIR/metrics.out" ||
	fail "/metrics unreachable" "$DIR/out.log"
while IFS= read -r want; do
	grep -qF "$want" "$DIR/metrics.out" ||
		fail "/metrics missing \"$want\"" "$DIR/metrics.out"
done <<'EOF'
# TYPE modelardb_ingested_points_total counter
# TYPE modelardb_ingest_batch_seconds histogram
# TYPE modelardb_query_seconds histogram
# TYPE modelardb_query_stage_seconds histogram
# TYPE modelardb_query_view_values_total counter
# TYPE modelardb_wal_fsync_seconds histogram
# TYPE modelardb_rpc_server_seconds histogram
# TYPE modelardb_http_requests_total counter
# TYPE modelardb_http_request_seconds histogram
# TYPE modelardb_series gauge
modelardb_ingested_points_total 6
modelardb_queries_total 2
modelardb_slow_queries_total 2
modelardb_series 2
modelardb_query_stage_seconds_count{stage="scan"} 2
modelardb_http_requests_total{endpoint="append"} 1
modelardb_http_requests_total{endpoint="query"} 1
modelardb_http_rejected_total{endpoint="query",reason="unauthorized"} 1
modelardb_http_request_seconds_count{endpoint="query"} 1
EOF

curl -fsS "http://$ADMIN/statusz" >"$DIR/statusz.out" ||
	fail "/statusz unreachable" "$DIR/out.log"
grep -q '"modelardb_ingested_points_total":6' "$DIR/statusz.out" ||
	fail "/statusz snapshot wrong" "$DIR/statusz.out"

curl -fsS "http://$ADMIN/debug/pprof/heap?debug=1" >"$DIR/heap.out" ||
	fail "/debug/pprof/heap unreachable" "$DIR/out.log"
grep -q 'heap profile' "$DIR/heap.out" || fail "not a heap profile" "$DIR/heap.out"

grep -q 'slow query' "$DIR/out.log" || fail "slow-query log line missing" "$DIR/out.log"

echo "obs-smoke: admin endpoint, HTTP API, exposition, pprof and slow-query log OK"
