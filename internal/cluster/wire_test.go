package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"io"
	"maps"
	"math"
	"math/rand/v2"
	"net"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"modelardb"
	"modelardb/internal/core"
)

// totalAlloc returns the bytes the process has allocated so far.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// encodeFrame returns f as it goes on the wire, length prefix included.
func encodeFrame(t testing.TB, f *frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFrame reports whether two frames carry the same fields; a nil
// and an empty Body are the same.
func sameFrame(a, b *frame) bool {
	return a.Kind == b.Kind && a.ID == b.ID && a.Seq == b.Seq &&
		a.Method == b.Method && a.Err == b.Err && bytes.Equal(a.Body, b.Body)
}

// samePoints compares points by their Value bits, so NaN payloads and
// the sign of zero count.
func samePoints(a, b []core.DataPoint) bool {
	return slices.EqualFunc(a, b, func(p, q core.DataPoint) bool {
		return p.Tid == q.Tid && p.TS == q.TS && math.Float32bits(p.Value) == math.Float32bits(q.Value)
	})
}

// wireSeedFrames returns one real frame of every kind and method the
// transport sends, bodies encoded by their own codecs.
func wireSeedFrames() []*frame {
	return []*frame{
		{Kind: frameRequest, ID: 1, Method: "Append", enc: &AppendArgs{
			Points: []core.DataPoint{{Tid: 1, TS: 0, Value: 1}, {Tid: 3, TS: -1000, Value: -2.5}, {Tid: 2, TS: 1 << 40, Value: float32(math.Inf(1))}},
			Seqs:   map[core.Gid]uint64{1: 7, 2: 1 << 33},
		}},
		{Kind: frameRequest, ID: 2, Method: "Append", enc: &AppendArgs{Points: []core.DataPoint{{Tid: 4, TS: 5, Value: 0}}}},
		{Kind: frameRequest, ID: 3, Method: "IngestState"},
		{Kind: frameResponse, ID: 3, enc: &IngestStateReply{Applied: map[core.Gid]uint64{1: 4, 9: 2}}},
		{Kind: frameRequest, ID: 4, Method: "Flush"},
		{Kind: frameResponse, ID: 4, Err: "cluster: worker failed"},
		{Kind: frameRequest, ID: 5, Method: "Snapshot"},
		{Kind: frameResponse, ID: 5, enc: &SnapshotReply{Snap: map[string]float64{"a_total": 3, "b_seconds": 0.25}}},
		{Kind: frameRequest, ID: 6, Method: "ExecutePartialStream", enc: &StreamQueryArgs{SQL: "SELECT SUM_S(*) FROM Segment", ChunkBytes: 2048}},
		{Kind: frameChunk, ID: 6, Seq: 0, Body: []byte{1, 0, 1, 3, 'S', 'U', 'M'}},
		{Kind: frameResponse, ID: 6},
		{Kind: frameCancel, ID: 6},
	}
}

// TestWireSeedFramesGolden: every seed frame encodes to the bytes in
// testdata/wire_seed_frames.hex — one frame a line in wireSeedFrames
// order, hex, length prefix included — so a change to the transport
// that moves a byte a master or worker writes fails here.
func TestWireSeedFramesGolden(t *testing.T) {
	b, err := os.ReadFile("testdata/wire_seed_frames.hex")
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(b))
	frames := wireSeedFrames()
	if len(want) != len(frames) {
		t.Fatalf("golden holds %d frames, wireSeedFrames %d", len(want), len(frames))
	}
	for i, f := range frames {
		if got := hex.EncodeToString(encodeFrame(t, f)); got != want[i] {
			t.Errorf("frame %d (%+v) encodes as\n%s\nwant\n%s", i, f, got, want[i])
		}
	}
}

// wireBodies returns a fresh value of every call body type.
func wireBodies() []wireBody {
	return []wireBody{&AppendArgs{}, &IngestStateReply{}, &StreamQueryArgs{}, &SnapshotReply{}}
}

// TestWireRoundTrip: frames and call bodies decode to what was
// encoded — random values, nil and empty maps and slices, empty
// strings and bodies, and IDs at the uvarint maximum.
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 1))
	randBytes := func(max int) []byte {
		b := make([]byte, rng.IntN(max+1))
		for i := range b {
			b[i] = byte(rng.Uint32())
		}
		return b
	}
	// randU64 spreads values over every uvarint length.
	randU64 := func() uint64 { return rng.Uint64() >> rng.IntN(64) }

	frames := []*frame{
		{Kind: frameCancel},
		{Kind: frameRequest, ID: math.MaxUint64, Seq: math.MaxUint64, Method: "Append", Body: []byte{}},
		{Kind: frameResponse, ID: 7, Err: "worker failed"},
		{Kind: frameChunk, ID: 1, Seq: 2, Body: randBytes(frameReadStep * 3)},
	}
	for i := 0; i < 200; i++ {
		frames = append(frames, &frame{
			Kind:   frameKind(1 + rng.IntN(4)),
			ID:     randU64(),
			Seq:    randU64(),
			Method: string(randBytes(20)),
			Err:    string(randBytes(40)),
			Body:   randBytes(300),
		})
	}
	for i, f := range frames {
		r := bytes.NewReader(encodeFrame(t, f))
		got, err := readFrame(r)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !sameFrame(got, f) || r.Len() != 0 {
			t.Fatalf("frame %d: decoded %+v, want %+v (%d bytes left)", i, got, f, r.Len())
		}
	}

	randPoints := func() []core.DataPoint {
		pts := make([]core.DataPoint, rng.IntN(50))
		for i := range pts {
			pts[i] = core.DataPoint{
				Tid:   core.Tid(1 + rng.Int32N(math.MaxInt32)),
				TS:    int64(rng.Uint64()),
				Value: math.Float32frombits(rng.Uint32()),
			}
		}
		return pts
	}
	randSeqs := func() map[core.Gid]uint64 {
		m := map[core.Gid]uint64{}
		for range rng.IntN(20) {
			m[core.Gid(1+rng.Int32N(math.MaxInt32))] = randU64()
		}
		return m
	}
	appends := []*AppendArgs{
		{},
		{Points: []core.DataPoint{}, Seqs: map[core.Gid]uint64{}},
		{Points: []core.DataPoint{{Tid: math.MaxInt32, TS: math.MinInt64}, {Tid: 1, TS: math.MaxInt64, Value: float32(math.Copysign(0, -1))}},
			Seqs: map[core.Gid]uint64{math.MaxInt32: math.MaxUint64, 1: 0}},
	}
	states := []*IngestStateReply{{}, {Applied: map[core.Gid]uint64{}}}
	queries := []*StreamQueryArgs{{}, {SQL: "SELECT 1", ChunkBytes: math.MinInt64}, {ChunkBytes: math.MaxInt64}}
	snaps := []*SnapshotReply{{}, {Snap: map[string]float64{}}, {Snap: map[string]float64{"": math.NaN(), "x": math.Inf(-1)}}}
	for range 100 {
		appends = append(appends, &AppendArgs{Points: randPoints(), Seqs: randSeqs()})
		states = append(states, &IngestStateReply{Applied: randSeqs()})
		queries = append(queries, &StreamQueryArgs{SQL: string(randBytes(100)), ChunkBytes: int64(randU64()) * int64(1-2*rng.IntN(2))})
		snap := map[string]float64{}
		for range rng.IntN(20) {
			snap[string(randBytes(12))] = math.Float64frombits(rng.Uint64())
		}
		snaps = append(snaps, &SnapshotReply{Snap: snap})
	}

	// roundTrip sends in as a request body and decodes the received
	// frame's body into out.
	roundTrip := func(in, out wireBody) {
		t.Helper()
		f, err := readFrame(bytes.NewReader(encodeFrame(t, &frame{Kind: frameRequest, ID: randU64(), Method: "Append", enc: in})))
		if err != nil {
			t.Fatal(err)
		}
		if err := decodeBody(f.Body, out); err != nil {
			t.Fatalf("decode %T %+v: %v", in, in, err)
		}
	}
	for _, in := range appends {
		var out AppendArgs
		roundTrip(in, &out)
		if !samePoints(out.Points, in.Points) || !maps.Equal(out.Seqs, in.Seqs) {
			t.Fatalf("AppendArgs %+v decoded as %+v", in, out)
		}
		if len(in.Seqs) == 0 && out.Seqs != nil {
			t.Fatalf("empty Seqs decoded as %v, want nil", out.Seqs)
		}
	}
	for _, in := range states {
		var out IngestStateReply
		roundTrip(in, &out)
		if !maps.Equal(out.Applied, in.Applied) {
			t.Fatalf("IngestStateReply %+v decoded as %+v", in, out)
		}
	}
	for _, in := range queries {
		var out StreamQueryArgs
		roundTrip(in, &out)
		if out != *in {
			t.Fatalf("StreamQueryArgs %+v decoded as %+v", in, out)
		}
	}
	for _, in := range snaps {
		var out SnapshotReply
		roundTrip(in, &out)
		if !maps.EqualFunc(out.Snap, in.Snap, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Fatalf("SnapshotReply %+v decoded as %+v", in, out)
		}
	}
	// One batch always encodes to the same bytes, whatever the map's
	// iteration order.
	a := appends[len(appends)-1]
	if enc := a.appendWire(nil); !bytes.Equal(enc, a.appendWire(nil)) {
		t.Fatal("one AppendArgs encoded to two byte strings")
	}
}

// TestWireStrictDecode: the decoders refuse what the encoders never
// write instead of guessing.
func TestWireStrictDecode(t *testing.T) {
	frameBytes := func(f *frame) []byte { return encodeFrame(t, f)[4:] }
	good := frameBytes(&frame{Kind: frameResponse, ID: 1})
	for name, b := range map[string][]byte{
		"empty":         {},
		"version":       append([]byte{1}, good[1:]...),
		"kind 0":        append([]byte{wireVersion, 0}, good[2:]...),
		"kind 5":        append([]byte{wireVersion, 5}, good[2:]...),
		"flags":         append(append([]byte{}, good[:4]...), append([]byte{0x03}, good[5:]...)...),
		"final unset":   append(append([]byte{}, good[:4]...), append([]byte{0}, good[5:]...)...),
		"final request": append([]byte{wireVersion, byte(frameRequest)}, good[2:]...),
		"final cancel":  append([]byte{wireVersion, byte(frameCancel)}, good[2:]...),
		"final chunk":   append([]byte{wireVersion, byte(frameChunk)}, good[2:]...),
		"truncated":     good[:len(good)-1],
		"method length": append(append([]byte{}, good[:5]...), 9, 'A'),
	} {
		if _, err := decodeFrame(b); err == nil {
			t.Errorf("%s: frame %x decoded", name, b)
		}
	}
	if _, err := decodeFrame(append([]byte{0x7f}, good[1:]...)); !errors.Is(err, ErrWireVersion) {
		t.Errorf("unknown version: %v, want ErrWireVersion", err)
	}

	uv := binary.AppendUvarint
	pt := func(tid uint64) []byte { return append(uv(nil, tid), 0, 0, 0, 0, 0) }
	cases := []struct {
		name string
		v    wireBody
		b    []byte
	}{
		{"append empty", &AppendArgs{}, nil},
		{"append tid 0", &AppendArgs{}, append(append([]byte{1}, pt(0)...), 0)},
		{"append tid above MaxInt32", &AppendArgs{}, append(append([]byte{1}, pt(math.MaxInt32+1)...), 0)},
		{"append count", &AppendArgs{}, append(uv(nil, 1<<40), pt(1)...)},
		{"append trailing", &AppendArgs{}, append(append([]byte{1}, pt(1)...), 0, 0)},
		{"append gid 0", &AppendArgs{}, []byte{0, 1, 0, 1}},
		{"append gids out of order", &AppendArgs{}, []byte{0, 2, 2, 1, 1, 1}},
		{"append gids repeated", &AppendArgs{}, []byte{0, 2, 1, 1, 1, 2}},
		{"append seqs count", &AppendArgs{}, []byte{0, 100, 1, 1}},
		{"state gid above MaxInt32", &IngestStateReply{}, append(append([]byte{1}, uv(nil, math.MaxInt32+1)...), 1)},
		{"state trailing", &IngestStateReply{}, []byte{0, 0}},
		{"query truncated", &StreamQueryArgs{}, []byte{3, 'S', 'E'}},
		{"query trailing", &StreamQueryArgs{}, []byte{0, 0, 0}},
		{"snapshot names out of order", &SnapshotReply{}, []byte{2, 1, 'b', 0, 0, 0, 0, 0, 0, 0, 0, 1, 'a', 0, 0, 0, 0, 0, 0, 0, 0}},
		{"snapshot truncated value", &SnapshotReply{}, []byte{1, 1, 'a', 0, 0, 0}},
	}
	for _, c := range cases {
		if err := c.v.decodeWire(c.b); err == nil {
			t.Errorf("%s: %x decoded as %+v", c.name, c.b, c.v)
		}
	}
}

// TestReadFrameHostileLength: a length prefix is only a claim. A peer
// that announces a 1 GiB frame and then sends nothing must cost the
// reader next to nothing, not the announced gigabyte.
func TestReadFrameHostileLength(t *testing.T) {
	for _, sent := range []int{0, 10, frameReadStep + 10} {
		var b []byte
		b = binary.BigEndian.AppendUint32(b, 1<<30)
		b = append(b, make([]byte, sent)...)
		before := totalAlloc()
		_, err := readFrame(bytes.NewReader(b))
		alloc := totalAlloc() - before
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d body bytes sent: err = %v, want io.ErrUnexpectedEOF", sent, err)
		}
		if alloc >= 8<<20 {
			t.Fatalf("%d body bytes sent: reading a 1 GiB claim allocated %d bytes", sent, alloc)
		}
	}
}

// TestOldGobFrameRefused: a peer that still speaks the gob framing is
// refused at its first frame with ErrWireVersion and the connection is
// dropped; the Append it carried is never dispatched.
func TestOldGobFrameRefused(t *testing.T) {
	// oldFrame is the frame value the gob framing sent, behind the same
	// 4-byte big-endian length prefix.
	type oldFrame struct {
		Kind   uint8
		ID     uint64
		Seq    uint64
		Final  bool
		Method string
		Err    string
		Body   []byte
	}
	var body bytes.Buffer
	args := AppendArgs{Points: []core.DataPoint{{Tid: 1, TS: 0, Value: 1}}, Seqs: map[core.Gid]uint64{1: 1}}
	if err := gob.NewEncoder(&body).Encode(&args); err != nil {
		t.Fatal(err)
	}
	msg := bytes.NewBuffer([]byte{0, 0, 0, 0})
	if err := gob.NewEncoder(msg).Encode(&oldFrame{Kind: uint8(frameRequest), ID: 1, Method: "Append", Body: body.Bytes()}); err != nil {
		t.Fatal(err)
	}
	b := msg.Bytes()
	binary.BigEndian.PutUint32(b, uint32(len(b)-4))

	db, err := modelardb.Open(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db)
	master, worker := net.Pipe()
	defer master.Close()
	served := make(chan error, 1)
	go func() { served <- srv.ServeConn(context.Background(), worker) }()
	go master.Write(b)
	select {
	case err := <-served:
		if !errors.Is(err, ErrWireVersion) {
			t.Fatalf("ServeConn = %v, want ErrWireVersion", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the server did not refuse the gob frame")
	}
	if _, err := master.Read(make([]byte, 1)); err == nil {
		t.Fatal("the server kept the connection open")
	}
	if n := srv.met.Calls["Append"].Count(); n != 0 {
		t.Fatalf("%d Append calls dispatched", n)
	}
	if st, _ := db.Stats(); st.DataPoints != 0 {
		t.Fatalf("the refused frame ingested %d points", st.DataPoints)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to the frame reader and to
// every call body decoder, as a worker or master reads them from a
// peer. Nothing may panic; the allocations stay within a small multiple
// of the input, plus the one read step a length prefix may claim; and
// whatever decodes re-encodes to bytes that decode to the same value.
func FuzzDecodeFrame(f *testing.F) {
	for _, fr := range wireSeedFrames() {
		f.Add(encodeFrame(f, fr))
		if fr.enc != nil {
			f.Add(fr.enc.appendWire(nil)) // a body alone, for the body decoders
		}
	}
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		before := totalAlloc()
		inputs := [][]byte{data}
		if fr, err := readFrame(bytes.NewReader(data)); err == nil {
			again, err := readFrame(bytes.NewReader(encodeFrame(t, fr)))
			if err != nil || !sameFrame(again, fr) {
				t.Fatalf("frame %+v re-read as %+v, %v", fr, again, err)
			}
			inputs = append(inputs, fr.Body)
		}
		for _, in := range inputs {
			for i, v := range wireBodies() {
				if v.decodeWire(in) != nil {
					continue
				}
				enc := v.appendWire(nil)
				again := wireBodies()[i]
				if err := again.decodeWire(enc); err != nil {
					t.Fatalf("%T re-encoded as %x fails to decode: %v", v, enc, err)
				}
				if !bytes.Equal(again.appendWire(nil), enc) {
					t.Fatalf("%T does not re-encode stably", v)
				}
			}
		}
		if alloc := totalAlloc() - before; alloc > uint64(64*len(data)+2*frameReadStep) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), alloc)
		}
	})
}
