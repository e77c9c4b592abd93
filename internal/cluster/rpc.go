package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"maps"
	"math"
	"net"
	"slices"
	"sync"
	"time"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/obs"
	"modelardb/internal/query"
	"modelardb/internal/wire"
)

// Server exposes one worker over the framed transport (transport.go):
// it decodes each request frame and calls its localWorker, so a worker
// does the same per call whether its master is in this process or
// across TCP. The paper's workers are Spark executors with co-located
// Cassandra nodes; here each worker is a DB with its own store. Every
// call runs under a per-call context derived from its connection's
// context, so the master can abort an in-flight scan with a Cancel
// frame — and a dropped master connection aborts every call it had in
// flight.
type Server struct {
	w *localWorker
	// met holds the worker-side RPC instruments, registered into the
	// DB's own registry: the in-flight and stream gauges therefore ride
	// every snapshot (Stats, the Snapshot RPC, /metrics) without any
	// per-surface overlay.
	met *obs.RPCServerMetrics
}

// serverMethods names every RPC the server dispatches; each gets its
// own handle-latency histogram.
var serverMethods = []string{"Append", "IngestState", "Flush", "ExecutePartialStream", "Snapshot"}

// NewServer wraps a database as a transport worker.
func NewServer(db *modelardb.DB) *Server {
	return &Server{w: &localWorker{db: db}, met: obs.NewRPCServerMetrics(db.Metrics(), serverMethods)}
}

// InFlight reports the number of calls currently executing; tests and
// monitoring use it to observe that cancelled scans actually drain.
func (s *Server) InFlight() int { return int(s.met.InFlight.Value()) }

// InFlightStreams reports the number of streaming scatter replies
// currently being produced — the backpressure signal surfaced through
// cluster Stats.
func (s *Server) InFlightStreams() int { return int(s.met.Streams.Value()) }

// AppendArgs is a batch of data points for one worker. Seqs carries
// the master-assigned batch sequence per group in Points: the worker
// skips any group slice whose sequence it has already applied, so
// delivering the same AppendArgs twice (a retry after an ambiguous
// failure, a re-queue replay) ingests its points exactly once. A nil
// Seqs (or a group mapped to 0) requests the legacy at-least-once
// behavior.
type AppendArgs struct {
	Points []core.DataPoint
	Seqs   map[core.Gid]uint64
}

// IngestStateReply reports a worker's per-group applied batch
// sequences. A master fetches it when (re)connecting so the sequences
// it assigns continue above everything the worker already ingested —
// without it, a restarted master would reuse low sequences and the
// worker would silently drop its fresh batches as duplicates.
type IngestStateReply struct {
	Applied map[core.Gid]uint64
}

// StreamQueryArgs carries a scatter's SQL plus the master's configured
// chunk bound. Every worker parses and compiles the SQL against its
// replicated metadata, as the paper's master sends rewritten queries
// to each worker, then splits its partial result into chunks of
// roughly ChunkBytes and streams them as chunk frames, so the master's
// per-worker memory is one chunk instead of the whole reply.
// ChunkBytes 0 selects the worker's default.
type StreamQueryArgs struct {
	SQL        string
	ChunkBytes int64
}

// SnapshotReply carries a worker's full metrics-registry snapshot. The
// master folds worker snapshots key-wise (obs.MergeSnapshots), so a
// metric a worker adds shows up in cluster-wide statistics without any
// reply-struct change.
type SnapshotReply struct {
	Snap map[string]float64
}

// wireBody is a call's arguments or reply in the transport's binary
// codec (docs/wire-protocol.md). appendWire encodes it onto buf;
// decodeWire parses exactly one encoding and refuses anything else —
// short or trailing bytes, a count the bytes cannot hold, keys out of
// order.
type wireBody interface {
	appendWire(buf []byte) []byte
	decodeWire(b []byte) error
}

// appendWire encodes the points as one core.AppendPoints run (the WAL
// record's layout), then Seqs as one core.AppendSeqs table, so one
// batch always encodes to the same bytes. A nil and an empty Seqs
// encode alike; the worker reads both the same way.
func (a *AppendArgs) appendWire(buf []byte) []byte {
	return core.AppendSeqs(core.AppendPoints(buf, a.Points), a.Seqs)
}

func (a *AppendArgs) decodeWire(b []byte) error {
	r := wire.NewReader(b)
	a.Points = core.DecodePoints(r)
	a.Seqs = core.DecodeSeqs(r)
	return r.End()
}

func (rep *IngestStateReply) appendWire(buf []byte) []byte { return core.AppendSeqs(buf, rep.Applied) }

func (rep *IngestStateReply) decodeWire(b []byte) error {
	r := wire.NewReader(b)
	rep.Applied = core.DecodeSeqs(r)
	return r.End()
}

func (a *StreamQueryArgs) appendWire(buf []byte) []byte {
	return binary.AppendVarint(wire.AppendString(buf, a.SQL), a.ChunkBytes)
}

func (a *StreamQueryArgs) decodeWire(b []byte) error {
	r := wire.NewReader(b)
	a.SQL = r.String()
	a.ChunkBytes = r.Varint()
	return r.End()
}

// appendWire encodes the snapshot as a count and (name, float64 bits)
// pairs in ascending name order.
func (rep *SnapshotReply) appendWire(buf []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rep.Snap)))
	for _, name := range slices.Sorted(maps.Keys(rep.Snap)) {
		buf = wire.AppendString(buf, name)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(rep.Snap[name]))
	}
	return buf
}

func (rep *SnapshotReply) decodeWire(b []byte) error {
	r := wire.NewReader(b)
	rep.Snap = nil
	n := r.Count(1 + 8)
	prev := ""
	for i := 0; i < n; i++ {
		name, v := r.String(), r.F64()
		if r.Err() != nil || (i > 0 && name <= prev) {
			r.Fail()
			break
		}
		if rep.Snap == nil {
			rep.Snap = make(map[string]float64, n)
		}
		rep.Snap[name], prev = v, name
	}
	return r.End()
}

// dispatch runs one call under its per-call context and returns its
// reply, nil for a call with an empty reply.
func (s *Server) dispatch(ctx context.Context, method string, body []byte) (wireBody, error) {
	switch method {
	case "Append":
		args := &AppendArgs{}
		if err := decodeBody(body, args); err != nil {
			return nil, err
		}
		return nil, s.w.apply(ctx, args)
	case "IngestState":
		applied, err := s.w.applied(ctx)
		if err != nil {
			return nil, err
		}
		return &IngestStateReply{Applied: applied}, nil
	case "Flush":
		return nil, s.w.flush(ctx)
	case "Snapshot":
		snap, err := s.w.snapshot(ctx)
		if err != nil {
			return nil, err
		}
		return &SnapshotReply{Snap: snap}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown method %q", method)
	}
}

// dispatchStream runs the streaming scatter method: the partial result
// leaves the worker as chunk frames while the scan is still running,
// interleaved with other calls' responses under wmu. connCtx is the
// connection's context — a chunk write blocked on a dead master is
// poisoned with a write deadline when it fires, so the serve loop's
// drain cannot deadlock behind a full send buffer. The caller writes
// the terminal response frame (carrying any error returned here).
func (s *Server) dispatchStream(ctx, connCtx context.Context, f *frame, conn net.Conn, wmu *sync.Mutex) error {
	args := &StreamQueryArgs{}
	if err := decodeBody(f.Body, args); err != nil {
		return err
	}
	s.met.Streams.Add(1)
	defer s.met.Streams.Add(-1)
	var seq uint64
	// Chunk bodies are the typed-vector format of query.EncodePartial,
	// and one encode buffer serves the whole stream.
	// The chunk (and its pooled batch) is only valid during this emit
	// call, so it is encoded before returning; writeFrame below copies
	// the body into its own pooled frame buffer.
	var encBuf []byte
	return s.w.partials(ctx, args, func(part *query.PartialResult) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		encBuf = query.EncodePartial(encBuf[:0], part)
		s.met.StreamChunks.Inc()
		s.met.StreamBytes.Add(int64(len(encBuf)))
		cf := &frame{Kind: frameChunk, ID: f.ID, Seq: seq, Body: encBuf}
		seq++
		stop := context.AfterFunc(connCtx, func() { conn.SetWriteDeadline(time.Now()) })
		wmu.Lock()
		err := writeFrame(conn, cf)
		wmu.Unlock()
		if !stop() {
			conn.SetWriteDeadline(time.Time{})
			if err == nil {
				err = connCtx.Err()
			}
		}
		return err
	})
}

// ServeConn serves one master connection until it closes. Requests
// dispatch concurrently, each under a context cancelled by a Cancel
// frame for its call ID, by the connection going away, or by ctx. It
// returns the read error that ended the connection: io.EOF when the
// master hung up, an error wrapping ErrWireVersion when the peer
// speaks another frame format. Any frame that does not decode drops
// the connection before anything of it is dispatched.
func (s *Server) ServeConn(ctx context.Context, conn net.Conn) error {
	defer conn.Close()
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wmu   sync.Mutex // serializes response writes
		mu    sync.Mutex // guards calls
		calls = map[uint64]context.CancelFunc{}
		wg    sync.WaitGroup
	)
	br := bufio.NewReader(conn)
	var err error
	for {
		var f *frame
		if f, err = readFrame(br); err != nil {
			break
		}
		switch f.Kind {
		case frameRequest:
			callCtx, callCancel := context.WithCancel(cctx)
			mu.Lock()
			calls[f.ID] = callCancel
			mu.Unlock()
			s.met.InFlight.Add(1)
			wg.Add(1)
			go func(f *frame) {
				defer wg.Done()
				t0 := time.Now()
				var reply wireBody
				var err error
				if f.Method == "ExecutePartialStream" {
					// Streaming calls write their own chunk frames; only the
					// terminal response goes through the shared path below.
					err = s.dispatchStream(callCtx, cctx, f, conn, &wmu)
				} else {
					reply, err = s.dispatch(callCtx, f.Method, f.Body)
				}
				if h := s.met.Calls[f.Method]; h != nil {
					h.ObserveSince(t0)
				}
				mu.Lock()
				delete(calls, f.ID)
				mu.Unlock()
				callCancel()
				resp := &frame{Kind: frameResponse, ID: f.ID, Final: true, enc: reply}
				if err != nil {
					resp.Err = err.Error()
				}
				wmu.Lock()
				// A write failure means the connection died; the read loop
				// notices and cancels the remaining calls.
				_ = writeFrame(conn, resp)
				wmu.Unlock()
				s.met.InFlight.Add(-1)
			}(f)
		case frameCancel:
			mu.Lock()
			if cancelCall, ok := calls[f.ID]; ok {
				cancelCall()
			}
			mu.Unlock()
		}
	}
	// Connection gone: a vanished master is a cancellation of every call
	// it had in flight. Wait the dispatches out so the scans drain.
	cancel()
	wg.Wait()
	return err
}

// Serve accepts and serves connections until the listener closes;
// ctx bounds every call of every connection.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go s.ServeConn(ctx, conn)
	}
}
