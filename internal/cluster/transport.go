package cluster

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"modelardb/internal/wire"
)

// The cluster's wire protocol, specified in docs/wire-protocol.md: a
// context-aware framed transport. Every message is one frame — a
// 4-byte big-endian length prefix and a binary frame header followed
// by the body — so many concurrent calls interleave on one TCP
// connection: requests, responses matched by call ID, Cancel frames
// that abort a worker-side call, and the ordered chunk frames of a
// streamed reply. A dropped connection cancels every call in flight on
// it.

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
	// Body is the encoded arguments, reply or stream chunk. A read
	// frame's Body aliases the buffer the frame was read into.
	Body []byte
	// enc, when set on a frame to be written, is encoded straight into
	// the frame buffer in place of Body.
	enc wireBody
}

// wireVersion is the frame format's version byte. It is 0x81, not 1: a
// gob stream opens with a message length, whose first byte is below
// 0x80 or at least 0xF8, so a peer still speaking the old gob framing
// fails the version check at its first frame instead of being
// misparsed.
const wireVersion = 0x81

// flagFinal is the frame flags bit that carries frame.Final; every
// other bit must be zero.
const flagFinal = 1

// ErrWireVersion refuses a frame whose version byte is not
// wireVersion: the peer speaks another frame format, so a cluster must
// run one version of the transport on every node.
var ErrWireVersion = errors.New("cluster: unsupported wire version")

// maxFrameSize guards the length prefix against corrupt or hostile
// peers; a partial result for a huge scatter stays far below it.
const maxFrameSize = 1 << 30

// frameReadStep is the most a frame read allocates ahead of the bytes
// it has received: a larger frame's buffer grows only as its bytes
// arrive, so a length prefix alone cannot make a node allocate up to
// maxFrameSize.
const frameReadStep = 64 << 10

// frameBufPool recycles the per-frame encode buffers: a streamed
// scatter writes thousands of chunk frames, and re-growing a fresh
// buffer to chunk size for each was a large share of the transport's
// allocations.
var frameBufPool = sync.Pool{New: func() any { return new([]byte) }}

// frameBufMax bounds pooled buffer retention so one giant frame does
// not pin its memory for the life of the process.
const frameBufMax = 4 << 20

// appendFrame appends f without its length prefix: version, kind, ID
// and Seq as uvarints, the flags byte, Method and Err as
// length-prefixed strings, then the body.
func appendFrame(buf []byte, f *frame) []byte {
	var flags byte
	if f.Final {
		flags |= flagFinal
	}
	buf = append(buf, wireVersion, byte(f.Kind))
	buf = binary.AppendUvarint(buf, f.ID)
	buf = binary.AppendUvarint(buf, f.Seq)
	buf = append(buf, flags)
	buf = wire.AppendString(buf, f.Method)
	buf = wire.AppendString(buf, f.Err)
	if f.enc != nil {
		return f.enc.appendWire(buf)
	}
	return append(buf, f.Body...)
}

// writeFrame encodes f with its length prefix into w. Callers
// serialize writes per connection; the encode buffer is pooled and w
// owns a full copy of the bytes once Write returns.
func writeFrame(w io.Writer, f *frame) error {
	bp := frameBufPool.Get().(*[]byte)
	b := appendFrame(append((*bp)[:0], 0, 0, 0, 0), f)
	defer func() {
		if cap(b) <= frameBufMax {
			*bp = b
			frameBufPool.Put(bp)
		}
	}()
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
	b, err := readBody(r, int(n))
	if err != nil {
		return nil, err
	}
	return decodeFrame(b)
}

// readBody reads the n bytes of a frame, allocating at most
// frameReadStep ahead of the bytes received: the buffer doubles only
// once the bytes read so far fill it.
func readBody(r io.Reader, n int) ([]byte, error) {
	b := make([]byte, min(n, frameReadStep))
	for off := 0; ; {
		m, err := io.ReadFull(r, b[off:])
		off += m
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, err
		}
		if off == n {
			return b, nil
		}
		b = append(b, make([]byte, min(n-off, off))...)
	}
}

// decodeFrame parses one frame without its length prefix. The frame's
// Body aliases b.
func decodeFrame(b []byte) (*frame, error) {
	r := wire.NewReader(b)
	if v := r.Byte(); r.Err() == nil && v != wireVersion {
		return nil, fmt.Errorf("%w %#x", ErrWireVersion, v)
	}
	f := &frame{Kind: frameKind(r.Byte()), ID: r.Uvarint(), Seq: r.Uvarint()}
	flags := r.Byte()
	f.Final = flags&flagFinal != 0
	f.Method = r.String()
	f.Err = r.String()
	f.Body = r.Rest()
	if f.Kind < frameRequest || f.Kind > frameChunk || flags&^flagFinal != 0 {
		r.Fail()
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	return f, nil
}

// decodeBody decodes a frame body into v; a nil v skips decoding
// (calls with an empty reply).
func decodeBody(body []byte, v wireBody) error {
	if v == nil {
		return nil
	}
	return v.decodeWire(body)
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
func (c *wireConn) start(ctx context.Context, method string, args wireBody, st *streamState) (uint64, chan callDone, error) {
	if err := ctx.Err(); err != nil {
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
	if err := c.write(ctx, &frame{Kind: frameRequest, ID: id, Method: method, enc: args}); err != nil {
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
func (c *wireConn) Call(ctx context.Context, method string, args, reply wireBody) error {
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
func (c *wireConn) CallStream(ctx context.Context, method string, args wireBody, onChunk func(body []byte) error) error {
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
