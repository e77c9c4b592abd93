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
// connection. Every call has one shape: a request, zero or more
// ordered chunk frames, then one response whose body is the reply, all
// matched by call ID; a Cancel frame aborts the call worker-side. A
// dropped connection cancels every call in flight on it.

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
	Seq    uint64 // chunk frames: 0-based position within the call
	Method string // requests only
	Err    string // responses only; empty on success
	// Body is the encoded arguments, reply or chunk. A read
	// frame's Body aliases the buffer the frame was read into.
	Body []byte
	// buf is that buffer, for its reader to reuse once Body is decoded.
	buf []byte
	// enc, when set on a frame to be written, is encoded straight into
	// the frame buffer in place of Body.
	enc interface{ appendWire(buf []byte) []byte }
}

// wireVersion is the frame format's version byte. It is 0x81, not 1: a
// gob stream opens with a message length, whose first byte is below
// 0x80 or at least 0xF8, so a peer still speaking the old gob framing
// fails the version check at its first frame instead of being
// misparsed.
const wireVersion = 0x81

// flagFinal is the frame flags bit set on exactly the response
// frames, the final frame of every call; every other bit must be zero.
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
	buf = append(buf, wireVersion, byte(f.Kind))
	buf = binary.AppendUvarint(buf, f.ID)
	buf = binary.AppendUvarint(buf, f.Seq)
	buf = append(buf, f.flags())
	buf = wire.AppendString(buf, f.Method)
	buf = wire.AppendString(buf, f.Err)
	if f.enc != nil {
		return f.enc.appendWire(buf)
	}
	return append(buf, f.Body...)
}

// flags returns the frame's flags byte, derived from its kind.
func (f *frame) flags() byte {
	if f.Kind == frameResponse {
		return flagFinal
	}
	return 0
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

// readFrame reads one length-prefixed frame from r into a fresh
// buffer.
func readFrame(r io.Reader) (*frame, error) { return readFrameInto(r, nil) }

// readFrameInto reads one length-prefixed frame from r into buf's
// storage, grown as readBody grows it; the frame's Body and buf alias
// the bytes read.
func readFrameInto(r io.Reader, buf []byte) (*frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > maxFrameSize {
		return nil, fmt.Errorf("cluster: invalid frame length %d", n)
	}
	b, err := readBody(r, int(n), buf)
	if err != nil {
		return nil, err
	}
	f, err := decodeFrame(b)
	if err != nil {
		return nil, err
	}
	f.buf = b
	return f, nil
}

// readBody reads the n bytes of a frame into buf's storage, allocating
// at most frameReadStep ahead of the bytes received: a buffer too
// small for the frame doubles only once the bytes read so far fill it.
func readBody(r io.Reader, n int, buf []byte) ([]byte, error) {
	b := buf[:min(n, cap(buf))]
	if len(b) < min(n, frameReadStep) {
		b = make([]byte, min(n, frameReadStep))
	}
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
	f.Method = r.String()
	f.Err = r.String()
	f.Body = r.Rest()
	if f.Kind < frameRequest || f.Kind > frameChunk || flags != f.flags() {
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

// call is the master's side of one call in flight. done receives its
// response or the connection's error. chunks and quit exist only for a
// call that takes chunks: chunks is deliberately small, so a consumer
// slower than the wire makes the read loop block on it, which stops
// frame reads, fills the TCP window and ultimately blocks the worker's
// chunk writes — backpressure end to end instead of unbounded
// buffering on the master; quit releases a read loop blocked on chunks
// once the caller is gone.
type call struct {
	done   chan callDone
	chunks chan *frame
	quit   chan struct{}
}

// chunkQueue is the per-call chunk queue depth: enough to keep decode
// and receive overlapped, small enough that master memory per call
// stays O(a few chunks).
const chunkQueue = 4

// wireConn is the master's side of one worker connection: it issues
// concurrent calls, matches their frames by ID on a single reader
// goroutine, and turns a caller's cancelled context into a Cancel
// frame so the worker aborts the call instead of running it out.
type wireConn struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes
	bw  *bufio.Writer

	nextID atomic.Uint64

	mu    sync.Mutex
	calls map[uint64]call
	err   error // terminal connection error; nil while healthy

	// free holds read buffers for reuse: the read loop reads each frame
	// into one, and its call hands it back once it has decoded the body
	// (release), so a stream of chunk frames reads into a few buffers
	// instead of a new one per frame. Its capacity bounds what it
	// retains to chunkQueue+2 buffers, one being read, a full chunk
	// queue and one being decoded, of at most frameBufMax each.
	free chan []byte
}

// newWireConn wraps an established connection and starts its reader.
func newWireConn(conn net.Conn) *wireConn {
	c := &wireConn{conn: conn, bw: bufio.NewWriter(conn), calls: map[uint64]call{}, free: make(chan []byte, chunkQueue+2)}
	go c.readLoop()
	return c
}

// readBuf returns a free read buffer, or nil for a fresh one.
func (c *wireConn) readBuf() []byte {
	select {
	case b := <-c.free:
		return b
	default:
		return nil
	}
}

// release hands a read frame's buffer back for reuse once nothing
// reads f's Body any more: every body decoder copies what it keeps.
func (c *wireConn) release(f *frame) {
	if cap(f.buf) > frameBufMax {
		return
	}
	select {
	case c.free <- f.buf:
	default:
	}
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

// readLoop delivers every frame to its call until the connection
// fails, then fails every call in flight with the same error.
func (c *wireConn) readLoop() {
	br := bufio.NewReader(c.conn)
	for {
		f, err := readFrameInto(br, c.readBuf())
		if err == nil {
			err = c.deliver(f)
		}
		if err != nil {
			c.fail(err)
			return
		}
	}
}

// deliver hands one chunk or response frame to its call, which
// releases its buffer; a response settles the call. Frames of a call
// that is gone are dropped, their buffers released here. A chunk for a
// live call that takes none is a protocol violation that fails the
// connection (Call checks the order of the chunks it takes).
func (c *wireConn) deliver(f *frame) error {
	if f.Kind != frameChunk && f.Kind != frameResponse {
		c.release(f)
		return nil
	}
	c.mu.Lock()
	cl, ok := c.calls[f.ID]
	if ok && f.Kind == frameResponse {
		delete(c.calls, f.ID)
	}
	c.mu.Unlock()
	switch {
	case !ok:
		c.release(f)
	case f.Kind == frameResponse:
		cl.done <- callDone{f: f}
	case cl.chunks == nil:
		return fmt.Errorf("chunk for call %d, which takes none", f.ID)
	default:
		// Delivered outside mu: a full chunk queue blocks here (and
		// thereby the whole read loop — that is the backpressure)
		// without holding the connection lock.
		select {
		case cl.chunks <- f:
		case <-cl.quit:
			c.release(f)
		}
	}
	return nil
}

// fail marks the connection dead and wakes every call in flight.
func (c *wireConn) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = fmt.Errorf("%w: %v", ErrConnectionLost, err)
	}
	for id, cl := range c.calls {
		delete(c.calls, id)
		cl.done <- callDone{err: c.err}
	}
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

// Call issues one call and waits for its response or ctx, then decodes
// the response's body into reply (nil: an empty reply). A non-nil
// onChunk makes the call take chunks: every chunk body is passed to it
// in wire order on the caller's goroutine, all of them before the
// response settles the call, and an error from onChunk abandons the
// call and is returned. A body, the response's included, is valid only
// until its decoder returns: its buffer then goes back to the
// connection for the next frame. On cancellation Call returns
// ctx.Err() at once. An abandoned call sends a best-effort Cancel
// frame so the worker aborts it server-side; its late frames are
// dropped by the reader.
func (c *wireConn) Call(ctx context.Context, method string, args, reply wireBody, onChunk func(body []byte) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	id := c.nextID.Add(1)
	cl := call{done: make(chan callDone, 1)}
	if onChunk != nil {
		cl.chunks, cl.quit = make(chan *frame, chunkQueue), make(chan struct{})
	}
	c.mu.Lock()
	if err := c.err; err != nil {
		c.mu.Unlock()
		return err
	}
	c.calls[id] = cl
	c.mu.Unlock()
	defer c.forget(id, cl)
	if err := c.write(ctx, &frame{Kind: frameRequest, ID: id, Method: method, enc: args}); err != nil {
		return fmt.Errorf("cluster: send %s: %w", method, err)
	}
	var next uint64 // the Seq the next chunk must carry
	take := func(f *frame) error {
		defer c.release(f)
		if f.Seq != next {
			err := fmt.Errorf("%w: %s chunk %d arrived at position %d", ErrConnectionLost, method, f.Seq, next)
			c.fail(err)
			return err
		}
		next++
		return onChunk(f.Body)
	}
	for {
		select {
		case f := <-cl.chunks:
			if err := take(f); err != nil {
				go c.sendCancel(id)
				return err
			}
		case d := <-cl.done:
			// The read loop is sequential, so by the time the response
			// was delivered every chunk before it already sits in
			// cl.chunks: drain them before settling the call.
			for len(cl.chunks) > 0 {
				if err := take(<-cl.chunks); err != nil {
					return err
				}
			}
			if err := d.result(method); err != nil {
				return err
			}
			defer c.release(d.f)
			return decodeBody(d.f.Body, reply)
		case <-ctx.Done():
			// Best effort, asynchronously: a wedged connection cannot
			// delay this return — the cancel write bounds itself.
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
// loop blocked on its chunk queue.
func (c *wireConn) forget(id uint64, cl call) {
	c.mu.Lock()
	delete(c.calls, id)
	c.mu.Unlock()
	if cl.quit != nil {
		close(cl.quit)
	}
}

// Close tears the connection down; calls in flight fail via the reader.
func (c *wireConn) Close() error {
	return c.conn.Close()
}
