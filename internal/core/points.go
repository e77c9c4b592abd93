package core

import (
	"encoding/binary"
	"errors"
	"math"
)

// minPointBytes is the smallest encoded point: a one-byte Tid, a
// one-byte TS and the four value bytes.
const minPointBytes = 6

// ErrCorruptPoints refuses a point run that AppendPoints did not write.
var ErrCorruptPoints = errors.New("core: corrupt point run")

// AppendPoints appends pts to buf as one point run: a uvarint count,
// then per point its Tid as a uvarint, its TS as a varint and its
// Value as little-endian float32 bits. The WAL's records and the
// cluster's Append bodies carry their points in this layout.
func AppendPoints(buf []byte, pts []DataPoint) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(pts)))
	for _, p := range pts {
		buf = binary.AppendUvarint(buf, uint64(p.Tid))
		buf = binary.AppendVarint(buf, p.TS)
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(p.Value))
	}
	return buf
}

// DecodePoints parses the point run at the front of b and returns its
// points and the bytes that follow it. A count the remaining bytes
// cannot hold is refused before anything is allocated, as are a
// truncated point and a Tid of 0 or above MaxInt32.
func DecodePoints(b []byte) ([]DataPoint, []byte, error) {
	count, n := binary.Uvarint(b)
	if n <= 0 || count > uint64(len(b)-n)/minPointBytes {
		return nil, nil, ErrCorruptPoints
	}
	b = b[n:]
	pts := make([]DataPoint, 0, count)
	for i := uint64(0); i < count; i++ {
		tid, n := binary.Uvarint(b)
		if n <= 0 || tid == 0 || tid > math.MaxInt32 {
			return nil, nil, ErrCorruptPoints
		}
		ts, m := binary.Varint(b[n:])
		if m <= 0 || len(b) < n+m+4 {
			return nil, nil, ErrCorruptPoints
		}
		v := math.Float32frombits(binary.LittleEndian.Uint32(b[n+m:]))
		b = b[n+m+4:]
		pts = append(pts, DataPoint{Tid: Tid(tid), TS: ts, Value: v})
	}
	return pts, b, nil
}
