package httpapi

import (
	"bytes"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/iotest"

	"modelardb"
	"modelardb/internal/core"
)

// FuzzRemoteWriteBody feeds arbitrary bytes through the remote-write
// body's two decoders as the endpoint does — snappyDecode, then
// decodeWriteRequest on what it produced — and the raw bytes straight
// to decodeWriteRequest too. Neither may panic, and each allocates at
// most a small multiple of its own input plus a constant: snappy's
// declared length is only a claim, and the decoded bytes a legitimate
// block produces are at most about 21 times its input (a 3-byte copy
// element yields 64 bytes). The bytes are then posted to
// /api/v1/prom/write on a fresh in-memory database, which must answer
// 204, having gained every sample of the request, or 400, stating the
// points the database gained (zero when the reply states no count).
func FuzzRemoteWriteBody(f *testing.F) {
	proto := encodeWriteRequest(sampleSeries())
	f.Add(snappyEncode(proto))
	f.Add(proto)
	for _, block := range snappyCopyBlocks {
		f.Add(block)
	}
	f.Add(hostileSnappyBody())
	f.Add([]byte{})
	// Series 1's last sample is older than its first two: the request
	// is rejected part-way, keeping three points.
	f.Add(snappyEncode(encodeWriteRequest([]promSeries{
		{Labels: []promLabel{{Name: "__name__", Value: "s2"}}, Samples: []promSample{{Value: 1, Timestamp: 0}}},
		{Labels: []promLabel{{Name: "__name__", Value: "s1"}}, Samples: []promSample{{Value: 1, Timestamp: 0}, {Value: 2, Timestamp: 2000}}},
		{Labels: []promLabel{{Name: "modelardb_tid", Value: "1"}}, Samples: []promSample{{Value: 3, Timestamp: 1000}}},
	})))
	// bounded reports whether decode allocated at most 256 bytes per
	// input byte plus 64 KiB.
	bounded := func(in []byte, decode func()) bool {
		before := totalAlloc()
		decode()
		return totalAlloc()-before <= uint64(256*len(in)+64<<10)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var raw []byte
		var err error
		if !bounded(data, func() { raw, err = snappyDecode(data) }) {
			t.Fatalf("snappyDecode of %d bytes allocated too much", len(data))
		}
		inputs := [][]byte{data}
		if err == nil {
			inputs = append(inputs, raw)
		}
		for _, in := range inputs {
			if !bounded(in, func() { decodeWriteRequest(in) }) {
				t.Fatalf("decodeWriteRequest of %d bytes allocated too much", len(in))
			}
		}

		db := testDB(t)
		rec := httptest.NewRecorder()
		New(db, Options{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/api/v1/prom/write", bytes.NewReader(data)))
		gained := int64(db.Snapshot()["modelardb_ingested_points_total"])
		switch rec.Code {
		case http.StatusNoContent:
			series, err := decodeWriteRequest(raw)
			if err != nil {
				t.Fatalf("204 for a body that does not decode: %v", err)
			}
			samples := int64(0)
			for _, s := range series {
				samples += int64(len(s.Samples))
			}
			if gained != samples {
				t.Fatalf("204 for %d samples, the database gained %d", samples, gained)
			}
		case http.StatusBadRequest:
			var e struct{ Error string }
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("400 reply %q is not a JSON error: %v", rec.Body, err)
			}
			stated := int64(0)
			if m := appendedCount.FindStringSubmatch(e.Error); m != nil {
				stated, _ = strconv.ParseInt(m[1]+m[2], 10, 64)
			}
			if gained != stated {
				t.Fatalf("reply %q states %d points, the database gained %d", e.Error, stated, gained)
			}
		default:
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	})
}

// appendedCount matches the point count an append reply carries, in
// the success body or in a failure's message.
var appendedCount = regexp.MustCompile(`^\{"appended":(\d+),"flushed":(?:true|false)\}\n$|append failed after (\d+) points`)

// FuzzAppendBody posts arbitrary bodies to /api/v1/append on a fresh
// in-memory database. The handler must not panic, must answer 200 or
// 400, and the point count its reply states must equal the points the
// database gained: the whole body on 200, the points ingested before
// the failure on 400 (zero when the reply states no count).
func FuzzAppendBody(f *testing.F) {
	seeds := []string{
		// The documented shapes: an object with points and flush, and a
		// bare array addressing series by tid and by source.
		`{"points":[{"tid":1,"ts":0,"value":5.0},{"source":"s2","ts":0,"value":7.25}],"flush":true}`,
		`[{"tid":1,"ts":0,"value":2},{"tid":1,"ts":1000,"value":4}]`,
		// The benchmark's body shape: ticks of both series, shortest
		// float32 spellings.
		`{"points":[{"tid":1,"ts":0,"value":1.5},{"tid":2,"ts":0,"value":-0.25},{"tid":1,"ts":1000,"value":3.4028235e+38},{"tid":2,"ts":1000,"value":1e-45}]}`,
		// A point rejected part-way: out of order after an accepted one.
		`[{"tid":1,"ts":1000,"value":1},{"tid":2,"ts":0,"value":1},{"tid":1,"ts":0,"value":1}]`,
		`{"flush":"yes"}`,
		`[]`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
		for _, cut := range []int{1, len(s) / 3, len(s) / 2, len(s) - 1} {
			if cut > 0 && cut < len(s) {
				f.Add(s[:cut])
			}
		}
	}
	f.Fuzz(func(t *testing.T, body string) {
		db := testDB(t)
		rec := httptest.NewRecorder()
		New(db, Options{}).Handler().ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/api/v1/append", strings.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
		reply := rec.Body.String()
		if rec.Code == http.StatusBadRequest {
			var e struct{ Error string }
			if err := json.Unmarshal([]byte(reply), &e); err != nil {
				t.Fatalf("400 reply %q is not a JSON error: %v", reply, err)
			}
			reply = e.Error
		}
		stated := int64(0)
		if m := appendedCount.FindStringSubmatch(reply); m != nil {
			stated, _ = strconv.ParseInt(m[1]+m[2], 10, 64)
		} else if rec.Code == http.StatusOK {
			t.Fatalf("200 reply %q states no count", reply)
		}
		if gained := int64(db.Snapshot()["modelardb_ingested_points_total"]); gained != stated {
			t.Fatalf("reply %q (HTTP %d) states %d points, the database gained %d", reply, rec.Code, stated, gained)
		}
	})
}

// appendPoint is one point of an append body as the encoding/json
// reference decodes it.
type appendPoint struct {
	Tid    int64   `json:"tid"`
	Source string  `json:"source"`
	TS     int64   `json:"ts"`
	Value  float64 `json:"value"`
}

// referenceAppend decodes an append body with encoding/json by the
// rules docs/http-api.md states: a body json.Valid refuses is refused;
// a bare array is json.Unmarshal'ed as []appendPoint; in an object,
// every member named exactly "points" is json.Unmarshal'ed as
// []appendPoint and ingests, flush is the OR of the members named
// exactly "flush", and other members are ignored. A point's Tid must
// fit modelardb.Tid; a Tid of 0 is resolved by the point's source.
func referenceAppend(body []byte, resolve func(string) (modelardb.Tid, bool)) ([]modelardb.DataPoint, bool, error) {
	if !json.Valid(body) {
		return nil, false, errors.New("invalid JSON")
	}
	var pts []appendPoint
	flush := false
	switch bytes.TrimLeft(body, " \t\r\n")[0] {
	case '[':
		if err := json.Unmarshal(body, &pts); err != nil {
			return nil, false, err
		}
	case '{':
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.Token()
		for dec.More() {
			key, _ := dec.Token()
			var raw json.RawMessage
			if err := dec.Decode(&raw); err != nil {
				return nil, false, err
			}
			switch key {
			case "points":
				var more []appendPoint
				if raw[0] != '[' {
					return nil, false, errors.New("points must be an array")
				}
				if err := json.Unmarshal(raw, &more); err != nil {
					return nil, false, err
				}
				pts = append(pts, more...)
			case "flush":
				var b bool
				if err := json.Unmarshal(raw, &b); err != nil {
					return nil, false, err
				}
				flush = flush || b
			}
		}
	default:
		return nil, false, errBodyShape
	}
	out := make([]modelardb.DataPoint, 0, len(pts))
	for _, p := range pts {
		tid := modelardb.Tid(p.Tid)
		if int64(tid) != p.Tid {
			return nil, false, errors.New("tid out of range")
		}
		if p.Tid == 0 {
			var ok bool
			if p.Source == "" {
				return nil, false, errors.New("no tid and no source")
			}
			if tid, ok = resolve(p.Source); !ok {
				return nil, false, errors.New("unknown source")
			}
		}
		out = append(out, modelardb.DataPoint{Tid: tid, TS: p.TS, Value: float32(p.Value)})
	}
	return out, flush, nil
}

// testSources resolves testDB's two series names.
func testSources(source string) (modelardb.Tid, bool) {
	tid, ok := map[string]modelardb.Tid{"s1": 1, "s2": 2}[source]
	return tid, ok
}

// hashSources resolves any source but one in eight to a Tid drawn from
// its bytes, so that a source unquoted differently resolves
// differently.
func hashSources(source string) (modelardb.Tid, bool) {
	h := fnv.New32a()
	h.Write([]byte(source))
	sum := h.Sum32()
	return modelardb.Tid(sum%1000 + 1), sum%8 != 0
}

// decodeAppend scans the append body r through a pooled decoder, as
// the handler does, shipping its points to ship.
func decodeAppend(r io.Reader, resolve func(string) (modelardb.Tid, bool), ship func([]modelardb.DataPoint) error) (flush bool, err error) {
	d := appendDecoders.Get().(*appendDecoder)
	defer d.release()
	return d.decode(r, resolve, ship)
}

// scanAppend decodes the body r with the scanner, through d or, when d
// is nil, through a pooled decoder, and collects the points it ships.
// Sources resolve through resolve.
func scanAppend(d *appendDecoder, r io.Reader, resolve func(string) (modelardb.Tid, bool)) ([]modelardb.DataPoint, bool, error) {
	var got []modelardb.DataPoint
	ship := func(batch []modelardb.DataPoint) error {
		if len(batch) > core.ShipSize {
			return errors.New("batch over core.ShipSize")
		}
		got = append(got, batch...)
		return nil
	}
	var flush bool
	var err error
	if d == nil {
		flush, err = decodeAppend(r, resolve, ship)
	} else {
		flush, err = d.decode(r, resolve, ship)
	}
	return got, flush, err
}

// sameAppend reports whether two decodes agree: both failed, or both
// gave the same points, bit for bit, and the same flush flag.
func sameAppend(got []modelardb.DataPoint, gotFlush bool, gotErr error, want []modelardb.DataPoint, wantFlush bool, wantErr error) bool {
	if gotErr != nil || wantErr != nil {
		return gotErr != nil && wantErr != nil
	}
	if gotFlush != wantFlush || len(got) != len(want) {
		return false
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Tid != w.Tid || g.TS != w.TS || math.Float32bits(g.Value) != math.Float32bits(w.Value) {
			return false
		}
	}
	return true
}

// FuzzAppendDecoderMatchesJSON checks the append body scanner against
// referenceAppend: for any body, both fail or both give the same
// points and flush flag. Sources resolve through hashSources, so the
// points show how each unquoted every source. The scanner reads each body twice: whole,
// through the pooled decoder, and one byte per Read through a decoder
// with a 4-byte buffer, so that every token straddles reads and grows
// the buffer.
func FuzzAppendDecoderMatchesJSON(f *testing.F) {
	for _, s := range []string{
		`{"points":[{"tid":1,"ts":0,"value":5.0},{"source":"s2","ts":0,"value":7.25}],"flush":true}`,
		`[{"tid":1,"ts":0,"value":2},{"tid":1,"ts":1000,"value":4}]`,
		`{"points":[{"tid":1,"ts":0,"value":1.5},{"tid":2,"ts":0,"value":-0.25},{"tid":1,"ts":1000,"value":3.4028235e+38},{"tid":2,"ts":1000,"value":1e-45}]}`,
		`[{"TID":1,"Ts":-0,"VALUE":-0.0,"tid":2,"x":{"y":[1,"\u00e9",null,true,{}]}}]`,
		`[{"\u0074id":1,"ts":null,"value":1e39,"source":"\ud83d\ude00"},null]`,
		`{"Points":[{"tid":1}],"points":[],"points":[{"source":"s1","sourcE":"s2"}],"flush":true,"flush":null}`,
		`[{"tid":1.0}]`, `[{"tid":9223372036854775808}]`, `[{"tid":4294967297}]`, `[{"ſource":"s1","tıd":1}]`,
		`[{"tid":1,"ts":0,"value":1}`, `{"points":[{"tid":1,"ts":0,"value":1}]`,
		`[{"tid":1,"ts":0,"value":1}] garbage`, `{"points":[{"tid":1,"ts":0,"value":1}]} trailing`,
		"[\"\x00\"]", "[\"\xff\"]", `[01]`, `[1.]`, `[-]`, ` [] `, `{}`, `null`, ``,
		`{"0":[],}`, `[{"tid":1},]`, "[{\"tid\":1},\x00", `{"x":[1,]}`,
		`[{"source":"\ud83d\ude00"},{"source":"\ud83d\u0041"},{"source":"\ude00\ud83d"},{"source":"\u00e9\/\t"}]`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body string) {
		want, wantFlush, wantErr := referenceAppend([]byte(body), hashSources)
		for _, d := range []*appendDecoder{nil, {buf: make([]byte, 4)}} {
			r := io.Reader(strings.NewReader(body))
			if d != nil {
				r = iotest.OneByteReader(r)
			}
			got, gotFlush, gotErr := scanAppend(d, r, hashSources)
			if !sameAppend(got, gotFlush, gotErr, want, wantFlush, wantErr) {
				t.Fatalf("body %q, small buffer %v:\nscanner   %v flush %v err %v\nreference %v flush %v err %v",
					body, d != nil, got, gotFlush, gotErr, want, wantFlush, wantErr)
			}
		}
	})
}
