package core

import (
	"encoding/binary"
	"maps"
	"math"
	"slices"

	"modelardb/internal/wire"
)

// minPointBytes is the smallest encoded point: a one-byte Tid, a
// one-byte TS and the four value bytes.
const minPointBytes = 6

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

// DecodePoints reads one AppendPoints run from r. A count the unread
// bytes cannot hold is refused before anything is allocated, as are a
// truncated point and a Tid of 0 or above MaxInt32; on any failure r
// holds the error and DecodePoints returns nil.
func DecodePoints(r *wire.Reader) []DataPoint {
	n := r.Count(minPointBytes)
	pts := make([]DataPoint, 0, n)
	for range n {
		tid, ts, v := r.Uvarint(), r.Varint(), r.U32()
		if r.Err() != nil || tid == 0 || tid > math.MaxInt32 {
			r.Fail()
			return nil
		}
		pts = append(pts, DataPoint{Tid: Tid(tid), TS: ts, Value: math.Float32frombits(v)})
	}
	return pts
}

// AppendSeqs appends a per-group sequence table — the WAL
// checkpoint's marks, a cluster batch's sequences — as a uvarint count
// and (Gid, seq) uvarint pairs in ascending Gid order, so one table
// always encodes to the same bytes.
func AppendSeqs(buf []byte, seqs map[Gid]uint64) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(seqs)))
	for _, gid := range slices.Sorted(maps.Keys(seqs)) {
		buf = binary.AppendUvarint(buf, uint64(gid))
		buf = binary.AppendUvarint(buf, seqs[gid])
	}
	return buf
}

// DecodeSeqs reads one AppendSeqs table from r; an empty table decodes
// as nil. Gids must be valid and strictly ascending.
func DecodeSeqs(r *wire.Reader) map[Gid]uint64 {
	n := r.Count(2)
	var seqs map[Gid]uint64
	var prev uint64
	for range n {
		gid, seq := r.Uvarint(), r.Uvarint()
		if r.Err() != nil || gid <= prev || gid > math.MaxInt32 {
			r.Fail()
			return nil
		}
		if seqs == nil {
			seqs = make(map[Gid]uint64, n)
		}
		seqs[Gid(gid)], prev = seq, gid
	}
	return seqs
}
