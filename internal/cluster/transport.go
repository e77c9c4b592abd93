package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// The cluster's wire protocol, specified in docs/wire-protocol.md: a
// context-aware framed transport. Every message is one frame — a
// 4-byte big-endian length prefix and a gob-encoded frame value — so
// many concurrent calls interleave on one TCP connection: requests,
// responses matched by call ID, Cancel frames that abort a worker-side
// call, and the ordered chunk frames of a streamed reply. A dropped
// connection cancels every call in flight on it.

type frameKind uint8

const (
	frameRequest frameKind = iota + 1
	frameResponse
	frameCancel
	frameChunk
)

// frame is one wire message.
type frame struct {
	Kind   frameKind
	ID     uint64
	Seq    uint64 // chunk frames: 0-based position within the stream
	Final  bool   // response frames: set on a streaming call's terminal frame
	Method string // requests only
	Err    string // responses only; empty on success
	Body   []byte // gob-encoded arguments, reply, or stream chunk
}

// maxFrameSize guards the length prefix against corrupt or hostile
// peers; a partial result for a huge scatter stays far below it.
const maxFrameSize = 1 << 30

// frameBufPool recycles the per-frame encode buffers: a streamed
// scatter writes thousands of chunk frames, and re-growing a fresh
// bytes.Buffer to chunk size for each was a large share of the
// transport's allocations.
var frameBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// frameBufMax bounds pooled buffer retention so one giant frame does
// not pin its memory for the life of the process.
const frameBufMax = 4 << 20

// writeFrame encodes f with its length prefix into w. Callers
// serialize writes per connection; the encode buffer is pooled and w
// owns a full copy of the bytes once Write returns.
func writeFrame(w io.Writer, f *frame) error {
	buf := frameBufPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= frameBufMax {
			frameBufPool.Put(buf)
		}
	}()
	buf.Reset()
	buf.Write([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(buf).Encode(f); err != nil {
		return err
	}
	b := buf.Bytes()
	if len(b)-4 > maxFrameSize {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(b)-4)
	}
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	_, err := w.Write(b)
	return err
}

// readFrame reads one length-prefixed frame from r.
func readFrame(r io.Reader) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameSize {
		return nil, fmt.Errorf("cluster: invalid frame length %d", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	f := &frame{}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(f); err != nil {
		return nil, err
	}
	return f, nil
}

// encodeBody gob-encodes call arguments or a reply.
func encodeBody(v any) ([]byte, error) {
	if v == nil {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// decodeBody gob-decodes a frame body into v; a nil v skips decoding
// (calls with an empty reply).
func decodeBody(body []byte, v any) error {
	if v == nil {
		return nil
	}
	return gob.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// ErrConnectionLost marks transport-level connection failures (reset,
// EOF, poisoned framing). Client.call matches it to trigger its
// reconnect retry loop; worker application errors and context
// cancellations never wrap it.
var ErrConnectionLost = errors.New("cluster: connection lost")

const (
	// retryBaseDelay is the first reconnect backoff step.
	retryBaseDelay = 25 * time.Millisecond
	// retryMaxDelay caps the exponential growth, so a long RetryBudget
	// still probes the worker about once a second.
	retryMaxDelay = time.Second
)

// retryBackoff returns the delay before reconnect attempt n (0-based):
// exponential growth from retryBaseDelay capped at retryMaxDelay, with
// ±50 % jitter so a fleet of masters retrying one recovering worker
// spreads its dials instead of dogpiling it.
func retryBackoff(attempt int) time.Duration {
	d := retryBaseDelay
	for i := 0; i < attempt && d < retryMaxDelay; i++ {
		d *= 2
	}
	if d > retryMaxDelay {
		d = retryMaxDelay
	}
	return d/2 + rand.N(d+1)
}

// WorkerError is an error a worker reported over the transport; it
// distinguishes application failures on the worker from transport
// failures (connection loss, cancellation) on the master.
type WorkerError struct {
	Method string
	Msg    string
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %s: %s", e.Method, e.Msg)
}

// callDone carries one finished call back to its waiter: either the
// response frame or a connection-level error.
type callDone struct {
	f   *frame
	err error
}

// wireConn is the master's side of one worker connection: it issues
// concurrent calls, matches responses by ID on a single reader
// goroutine, and turns a caller's cancelled context into a Cancel
// frame so the worker aborts the call instead of running it out.
type wireConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	nextID atomic.Uint64

	mu      sync.Mutex
	pending map[uint64]chan callDone
	streams map[uint64]*streamState
	err     error // terminal connection error; nil while healthy
}

// streamState is the receiving side of one streaming call. chunks is
// deliberately small: a consumer slower than the wire makes the read
// loop block on it, which stops frame reads, fills the TCP window and
// ultimately blocks the worker's chunk writes — backpressure end to
// end instead of unbounded buffering on the master. quit lets an
// abandoned stream (caller gone) release a blocked read loop.
type streamState struct {
	chunks chan *frame
	quit   chan struct{}
}

// streamChunkBuffer is the per-stream chunk queue depth: enough to
// keep decode and receive overlapped, small enough that master memory
// per stream stays O(a few chunks).
const streamChunkBuffer = 4

// newWireConn wraps an established connection and starts its reader.
func newWireConn(conn net.Conn) *wireConn {
	c := &wireConn{
		conn:    conn,
		bw:      bufio.NewWriter(conn),
		pending: map[uint64]chan callDone{},
		streams: map[uint64]*streamState{},
	}
	go c.readLoop()
	return c
}

// write sends one frame, flushing the connection's buffered writer.
// ctx aborts a blocked write: a peer that stopped reading fills the
// TCP send buffer, and a plain write would then hang the caller past
// every deadline. An aborted or failed write may leave the stream
// mid-frame, so the connection as a whole is failed — framing
// integrity is unknown and no later call may reuse it.
func (c *wireConn) write(ctx context.Context, f *frame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	stop := context.AfterFunc(ctx, func() { c.conn.SetWriteDeadline(time.Now()) })
	err := writeFrame(c.bw, f)
	if err == nil {
		err = c.bw.Flush()
	}
	if !stop() {
		// ctx fired during the write: lift the poisoned deadline so a
		// failure is attributed to the context, not the socket.
		c.conn.SetWriteDeadline(time.Time{})
		if err != nil {
			err = ctx.Err()
		}
	}
	if err != nil {
		c.fail(err)
		// Unless the caller's own context fired, report the sticky
		// connection-lost error so callers can match ErrConnectionLost
		// and reconnect.
		if ctx.Err() == nil {
			c.mu.Lock()
			err = c.err
			c.mu.Unlock()
		}
	}
	return err
}

// readLoop delivers responses to their waiting calls until the
// connection fails, then fails every pending call with the same error.
func (c *wireConn) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		f, err := readFrame(br)
		if err != nil {
			c.fail(err)
			return
		}
		switch f.Kind {
		case frameChunk:
			c.mu.Lock()
			st := c.streams[f.ID]
			c.mu.Unlock()
			if st == nil {
				continue // stream abandoned; drop late chunks
			}
			// Delivered outside mu: a full chunk queue blocks here (and
			// thereby the whole read loop — that is the backpressure)
			// without holding the connection lock.
			select {
			case st.chunks <- f:
			case <-st.quit:
			}
		case frameResponse:
			c.mu.Lock()
			ch := c.pending[f.ID]
			delete(c.pending, f.ID)
			c.mu.Unlock()
			if ch != nil {
				ch <- callDone{f: f}
			}
		}
	}
}

// fail marks the connection dead and wakes every pending call.
func (c *wireConn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	for id, ch := range c.pending {
		delete(c.pending, id)
		ch <- callDone{err: c.err}
	}
}

// start registers a call — and its stream, when st is non-nil — and
// writes its request frame.
func (c *wireConn) start(ctx context.Context, method string, args any, st *streamState) (uint64, chan callDone, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	body, err := encodeBody(args)
	if err != nil {
		return 0, nil, err
	}
	id := c.nextID.Add(1)
	ch := make(chan callDone, 1)
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		return 0, nil, err
	}
	c.pending[id] = ch
	if st != nil {
		c.streams[id] = st
	}
	c.mu.Unlock()
	if err := c.write(ctx, &frame{Kind: frameRequest, ID: id, Method: method, Body: body}); err != nil {
		c.forget(id)
		return 0, nil, fmt.Errorf("cluster: send %s: %w", method, err)
	}
	return id, ch, nil
}

// result is a finished call's outcome: the connection's error, the
// worker's own, or nil.
func (d callDone) result(method string) error {
	if d.err != nil {
		return d.err
	}
	if d.f.Err != "" {
		return &WorkerError{Method: method, Msg: d.f.Err}
	}
	return nil
}

// Call issues one request and waits for its response or ctx. On
// cancellation it returns ctx.Err() immediately and sends a
// best-effort Cancel frame so the worker aborts the call server-side.
func (c *wireConn) Call(ctx context.Context, method string, args, reply any) error {
	id, ch, err := c.start(ctx, method, args, nil)
	if err != nil {
		return err
	}
	select {
	case d := <-ch:
		if err := d.result(method); err != nil {
			return err
		}
		return decodeBody(d.f.Body, reply)
	case <-ctx.Done():
		c.forget(id)
		// Best effort, asynchronously: tell the worker to abort the
		// in-flight call. Its late response (if any) is dropped by the
		// reader as unknown, and a wedged connection cannot delay this
		// return — the cancel write bounds itself.
		go c.sendCancel(id)
		return ctx.Err()
	}
}

// CallStream issues one streaming request: the worker answers with
// zero or more chunk frames followed by a terminal response frame.
// onChunk is invoked for every chunk body, in wire order, on the
// caller's goroutine; an error from onChunk abandons the stream
// (cancelling the call worker-side) and is returned. Like Call, a
// cancelled ctx returns ctx.Err() immediately and cancels server-side
// best effort.
func (c *wireConn) CallStream(ctx context.Context, method string, args any, onChunk func(body []byte) error) error {
	st := &streamState{chunks: make(chan *frame, streamChunkBuffer), quit: make(chan struct{})}
	id, ch, err := c.start(ctx, method, args, st)
	if err != nil {
		return err
	}
	defer c.forget(id)
	var nextSeq uint64
	consume := func(f *frame) error {
		if f.Seq != nextSeq {
			err := fmt.Errorf("%w: stream %s chunk %d arrived at position %d", ErrConnectionLost, method, f.Seq, nextSeq)
			c.fail(err)
			return err
		}
		nextSeq++
		return onChunk(f.Body)
	}
	for {
		select {
		case f := <-st.chunks:
			if err := consume(f); err != nil {
				go c.sendCancel(id)
				return err
			}
		case d := <-ch:
			// The read loop is sequential, so by the time the terminal
			// response was delivered every preceding chunk already sits in
			// st.chunks: drain them before settling the call.
			for {
				select {
				case f := <-st.chunks:
					if err := consume(f); err != nil {
						go c.sendCancel(id)
						return err
					}
					continue
				default:
				}
				break
			}
			return d.result(method)
		case <-ctx.Done():
			go c.sendCancel(id)
			return ctx.Err()
		}
	}
}

// cancelWriteTimeout bounds the best-effort Cancel frame write; a
// connection that cannot take a few bytes within it is wedged and gets
// failed as a whole by write.
const cancelWriteTimeout = time.Second

// sendCancel asks the worker to abort a call whose caller is gone.
func (c *wireConn) sendCancel(id uint64) {
	ctx, cancel := context.WithTimeout(context.Background(), cancelWriteTimeout)
	defer cancel()
	_ = c.write(ctx, &frame{Kind: frameCancel, ID: id})
}

// forget drops a call that no longer has a waiter and releases a read
// loop blocked on its stream's chunk queue.
func (c *wireConn) forget(id uint64) {
	c.mu.Lock()
	st := c.streams[id]
	delete(c.pending, id)
	delete(c.streams, id)
	c.mu.Unlock()
	if st != nil {
		close(st.quit)
	}
}

// Close tears the connection down; pending calls fail via the reader.
func (c *wireConn) Close() error {
	return c.conn.Close()
}
