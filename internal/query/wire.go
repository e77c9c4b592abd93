package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"modelardb/internal/wire"
)

// The chunk-frame wire codec: a PartialResult encodes as length-
// prefixed typed vectors instead of per-cell gob interface values.
// gob spells every boxed cell as a type tag plus a varint — for a
// million-row scatter that is a million tiny interface encodes on the
// worker and as many decodes plus allocations on the master. Here a
// numeric column is 8*rows bytes copied in one pass, strings are
// uvarint-length-prefixed, and the small mergeable group states ride
// along in the same buffer. The format is self-describing (column
// types travel with the batch), versioned, and strictly bounds-checked
// on decode — DecodePartial must survive truncated or corrupted frames
// from a hostile or broken peer (FuzzDecodePartial).
//
// The TCP transport's chunk frames use this format; a cluster's
// in-process workers hand the master the same *PartialResult values
// without any encoding, so both worker kinds share one batch
// representation and one merge contract.

// partialWireVersion is bumped on incompatible layout changes; decode
// rejects unknown versions instead of guessing.
const partialWireVersion = 1

const (
	partialFlagAggregate = 1 << 0
	partialFlagBatch     = 1 << 1
)

// Group-key value tags: GroupState.Key cells are the same three cell
// types the batch columns have.
const (
	keyTagInt64 = uint8(iota + 1)
	keyTagFloat64
	keyTagString
)

// EncodePartial appends part's wire encoding to dst and returns the
// extended slice; pass a reused buffer (dst[:0]) to amortize the
// allocation across a stream's chunks.
func EncodePartial(dst []byte, part *PartialResult) []byte {
	dst = append(dst, partialWireVersion)
	var flags uint8
	if part.IsAggregate {
		flags |= partialFlagAggregate
	}
	if part.Batch != nil {
		flags |= partialFlagBatch
	}
	dst = append(dst, flags)
	dst = binary.AppendUvarint(dst, uint64(len(part.Columns)))
	for _, col := range part.Columns {
		dst = wire.AppendString(dst, col)
	}
	if part.Batch != nil {
		dst = encodeBatch(dst, part.Batch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(part.Groups)))
	for key, g := range part.Groups {
		dst = wire.AppendString(dst, key)
		dst = binary.AppendUvarint(dst, uint64(len(g.Key)))
		for _, v := range g.Key {
			switch x := v.(type) {
			case int64:
				dst = append(dst, keyTagInt64)
				dst = binary.LittleEndian.AppendUint64(dst, uint64(x))
			case float64:
				dst = append(dst, keyTagFloat64)
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(x))
			case string:
				dst = append(dst, keyTagString)
				dst = wire.AppendString(dst, x)
			default:
				// Group keys only ever hold the three cell types; encode
				// anything else as an empty string so the frame stays
				// parseable.
				dst = append(dst, keyTagString)
				dst = wire.AppendString(dst, "")
			}
		}
		dst = binary.AppendUvarint(dst, uint64(len(g.Scalars)))
		for _, s := range g.Scalars {
			dst = appendScalarState(dst, s)
		}
		dst = binary.AppendUvarint(dst, uint64(len(g.Cubes)))
		for _, c := range g.Cubes {
			dst = binary.AppendUvarint(dst, uint64(len(c)))
			for _, cell := range c {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(cell.Bucket))
				dst = appendScalarState(dst, cell.ScalarState)
			}
		}
	}
	return dst
}

func appendScalarState(dst []byte, s ScalarState) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(s.Count))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Sum))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Min))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s.Max))
	return dst
}

// encodeBatch appends the batch section: column types, row count, then
// each column as one contiguous vector.
func encodeBatch(dst []byte, b *ColumnBatch) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b.types)))
	for _, t := range b.types {
		dst = append(dst, byte(t))
	}
	dst = binary.AppendUvarint(dst, uint64(b.n))
	for c, t := range b.types {
		switch t {
		case ColInt64:
			for _, v := range b.i64[c] {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		case ColFloat64:
			for _, v := range b.f64[c] {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		case ColString:
			for _, v := range b.str[c] {
				dst = wire.AppendString(dst, v)
			}
		}
	}
	return dst
}

// DecodePartial parses one encoded chunk into part, overwriting its
// fields. The row batch is acquired from the package pool and belongs
// to the caller, who hands it back with ReleaseBatch once done with
// the rows — also after an error, which may leave a batch behind.
// part's previous batch is overwritten, not released. Decoded strings
// never alias data, so the frame body is free for reuse as soon as
// DecodePartial returns. Anything EncodePartial would not have
// written — trailing bytes included — is refused with
// wire.ErrMalformed.
func DecodePartial(data []byte, part *PartialResult) error {
	r := wire.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != partialWireVersion {
		return fmt.Errorf("query: partial result frame version %d, want %d", v, partialWireVersion)
	}
	flags := r.Byte()
	part.IsAggregate = flags&partialFlagAggregate != 0
	part.Columns = make([]string, r.Count(1))
	for i := range part.Columns {
		part.Columns[i] = r.String()
	}
	part.Batch = nil
	if flags&partialFlagBatch != 0 {
		decodeBatch(r, part)
	}
	ngroups := r.Count(1)
	part.Groups = nil
	if part.IsAggregate || ngroups > 0 {
		part.Groups = make(map[string]*GroupState, ngroups)
	}
	for range ngroups {
		key := r.String()
		g := &GroupState{}
		if n := r.Count(1); n > 0 {
			g.Key = make([]any, n)
		}
		for k := range g.Key {
			switch r.Byte() {
			case keyTagInt64:
				g.Key[k] = int64(r.U64())
			case keyTagFloat64:
				g.Key[k] = r.F64()
			case keyTagString:
				g.Key[k] = r.String()
			default:
				r.Fail()
			}
		}
		if n := r.Count(32); n > 0 {
			g.Scalars = make([]ScalarState, n)
		}
		for s := range g.Scalars {
			g.Scalars[s] = decodeScalarState(r)
		}
		if n := r.Count(1); n > 0 {
			g.Cubes = make([]CubeState, n)
		}
		for ci := range g.Cubes {
			cube := make(CubeState, r.Count(40))
			for j := range cube {
				cube[j] = CubeCell{Bucket: int64(r.U64()), ScalarState: decodeScalarState(r)}
			}
			g.Cubes[ci] = ascendingCube(cube)
		}
		if r.Err() != nil {
			break
		}
		part.Groups[key] = g
	}
	return r.End()
}

func decodeScalarState(r *wire.Reader) ScalarState {
	return ScalarState{Count: int64(r.U64()), Sum: r.F64(), Min: r.F64(), Max: r.F64()}
}

// ascendingCube returns a decoded cube section as the strictly
// ascending CubeState every merge and finalize relies on. Encoders
// write buckets in ascending order, so this is normally one pass; a
// frame from a broken or hostile peer is sorted (stably, so equal
// buckets keep frame order) and its duplicate buckets merged.
func ascendingCube(c CubeState) CubeState {
	for i := 1; i < len(c); i++ {
		if c[i-1].Bucket < c[i].Bucket {
			continue
		}
		slices.SortStableFunc(c, func(a, b CubeCell) int { return cmp.Compare(a.Bucket, b.Bucket) })
		out := c[:1]
		for _, cell := range c[1:] {
			if last := &out[len(out)-1]; last.Bucket == cell.Bucket {
				last.Merge(cell.ScalarState)
			} else {
				out = append(out, cell)
			}
		}
		return out
	}
	return c
}

// decodeBatch reads the batch section into part.Batch.
func decodeBatch(r *wire.Reader, part *PartialResult) {
	ncols := r.Count(1)
	types := make([]ColType, ncols)
	for c := range types {
		switch t := ColType(r.Byte()); t {
		case ColInt64, ColFloat64, ColString:
			types[c] = t
		default:
			r.Fail()
		}
	}
	nrows := r.Count(ncols) // every row costs >= 1 byte per column
	if r.Err() != nil || (ncols == 0 && nrows > 0) {
		r.Fail()
		return
	}
	b := getBatch(types)
	part.Batch = b
	for c, t := range types {
		switch t {
		case ColInt64:
			src := r.Next(8 * nrows)
			vec := growVec(b.i64[c], len(src)/8)
			for i := range vec {
				vec[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
			}
			b.i64[c] = vec
		case ColFloat64:
			src := r.Next(8 * nrows)
			vec := growVec(b.f64[c], len(src)/8)
			for i := range vec {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
			}
			b.f64[c] = vec
		case ColString:
			vec := b.str[c]
			for range nrows {
				s := r.String()
				vec = append(vec, s)
				b.bytes += 16 + len(s)
			}
			b.str[c] = vec
		}
	}
	if r.Err() != nil {
		return
	}
	b.n = nrows
	b.bytes += 8 * nrows * (ncols - countStrings(types))
}

// growVec returns a zero-offset vector of length n, reusing capacity.
func growVec[T any](vec []T, n int) []T {
	if cap(vec) < n {
		return make([]T, n)
	}
	return vec[:n]
}

func countStrings(types []ColType) int {
	n := 0
	for _, t := range types {
		if t == ColString {
			n++
		}
	}
	return n
}
