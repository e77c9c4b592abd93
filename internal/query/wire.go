package query

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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
		dst = appendWireString(dst, col)
	}
	if part.Batch != nil {
		dst = encodeBatch(dst, part.Batch)
	}
	dst = binary.AppendUvarint(dst, uint64(len(part.Groups)))
	for key, g := range part.Groups {
		dst = appendWireString(dst, key)
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
				dst = appendWireString(dst, x)
			default:
				// Group keys only ever hold the three cell types; encode
				// anything else as an empty string so the frame stays
				// parseable.
				dst = append(dst, keyTagString)
				dst = appendWireString(dst, "")
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

func appendWireString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
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
				dst = appendWireString(dst, v)
			}
		}
	}
	return dst
}

// wireReader is a bounds-checked cursor over an encoded frame body.
type wireReader struct {
	data []byte
	off  int
}

var errWireTruncated = fmt.Errorf("query: partial result frame truncated")

func (r *wireReader) remaining() int { return len(r.data) - r.off }

func (r *wireReader) byte() (byte, error) {
	if r.remaining() < 1 {
		return 0, errWireTruncated
	}
	b := r.data[r.off]
	r.off++
	return b, nil
}

func (r *wireReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, errWireTruncated
	}
	r.off += n
	return v, nil
}

// count reads a uvarint element count and rejects values that cannot
// fit in the remaining bytes at minSize bytes per element, so a
// corrupted count cannot drive a huge allocation.
func (r *wireReader) count(minSize int) (int, error) {
	v, err := r.uvarint()
	if err != nil {
		return 0, err
	}
	if minSize < 1 {
		minSize = 1
	}
	if v > uint64(r.remaining()/minSize) {
		return 0, fmt.Errorf("query: partial result frame: count %d exceeds remaining %d bytes", v, r.remaining())
	}
	return int(v), nil
}

func (r *wireReader) u64() (uint64, error) {
	if r.remaining() < 8 {
		return 0, errWireTruncated
	}
	v := binary.LittleEndian.Uint64(r.data[r.off:])
	r.off += 8
	return v, nil
}

func (r *wireReader) f64() (float64, error) {
	v, err := r.u64()
	return math.Float64frombits(v), err
}

// str reads a length-prefixed string. The returned string is a copy,
// never an alias of the frame body.
func (r *wireReader) str() (string, error) {
	n, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.remaining()) {
		return "", errWireTruncated
	}
	s := string(r.data[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *wireReader) scalarState() (ScalarState, error) {
	var s ScalarState
	c, err := r.u64()
	if err != nil {
		return s, err
	}
	s.Count = int64(c)
	if s.Sum, err = r.f64(); err != nil {
		return s, err
	}
	if s.Min, err = r.f64(); err != nil {
		return s, err
	}
	s.Max, err = r.f64()
	return s, err
}

// DecodePartial parses one encoded chunk into part, overwriting its
// fields. The row batch is acquired from the package pool (or part's
// existing batch is reused when the column layout matches); callers
// that are done merging should hand it back with ReleaseBatch. Decoded
// strings never alias data, so the frame body is free for reuse as
// soon as DecodePartial returns.
func DecodePartial(data []byte, part *PartialResult) error {
	r := &wireReader{data: data}
	version, err := r.byte()
	if err != nil {
		return err
	}
	if version != partialWireVersion {
		return fmt.Errorf("query: partial result frame version %d, want %d", version, partialWireVersion)
	}
	flags, err := r.byte()
	if err != nil {
		return err
	}
	part.IsAggregate = flags&partialFlagAggregate != 0
	ncols, err := r.count(1)
	if err != nil {
		return err
	}
	part.Columns = make([]string, ncols)
	for i := range part.Columns {
		if part.Columns[i], err = r.str(); err != nil {
			return err
		}
	}
	part.Batch = nil
	if flags&partialFlagBatch != 0 {
		if err := r.decodeBatch(part); err != nil {
			return err
		}
	}
	ngroups, err := r.count(1)
	if err != nil {
		return err
	}
	part.Groups = nil
	if part.IsAggregate || ngroups > 0 {
		part.Groups = make(map[string]*GroupState, ngroups)
	}
	for i := 0; i < ngroups; i++ {
		key, err := r.str()
		if err != nil {
			return err
		}
		g := &GroupState{}
		nkey, err := r.count(1)
		if err != nil {
			return err
		}
		if nkey > 0 {
			g.Key = make([]any, nkey)
		}
		for k := range g.Key {
			tag, err := r.byte()
			if err != nil {
				return err
			}
			switch tag {
			case keyTagInt64:
				v, err := r.u64()
				if err != nil {
					return err
				}
				g.Key[k] = int64(v)
			case keyTagFloat64:
				v, err := r.f64()
				if err != nil {
					return err
				}
				g.Key[k] = v
			case keyTagString:
				v, err := r.str()
				if err != nil {
					return err
				}
				g.Key[k] = v
			default:
				return fmt.Errorf("query: partial result frame: unknown key tag %d", tag)
			}
		}
		nscalars, err := r.count(32)
		if err != nil {
			return err
		}
		if nscalars > 0 {
			g.Scalars = make([]ScalarState, nscalars)
		}
		for s := range g.Scalars {
			if g.Scalars[s], err = r.scalarState(); err != nil {
				return err
			}
		}
		ncubes, err := r.count(1)
		if err != nil {
			return err
		}
		if ncubes > 0 {
			g.Cubes = make([]CubeState, ncubes)
		}
		for ci := range g.Cubes {
			nbuckets, err := r.count(40)
			if err != nil {
				return err
			}
			cube := make(CubeState, nbuckets)
			for j := range cube {
				bucket, err := r.u64()
				if err != nil {
					return err
				}
				s, err := r.scalarState()
				if err != nil {
					return err
				}
				cube[j] = CubeCell{Bucket: int64(bucket), ScalarState: s}
			}
			g.Cubes[ci] = ascendingCube(cube)
		}
		part.Groups[key] = g
	}
	return nil
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

// decodeBatch parses the batch section into part.Batch.
func (r *wireReader) decodeBatch(part *PartialResult) error {
	ncols, err := r.count(1)
	if err != nil {
		return err
	}
	types := make([]ColType, ncols)
	for c := range types {
		t, err := r.byte()
		if err != nil {
			return err
		}
		switch ColType(t) {
		case ColInt64, ColFloat64, ColString:
			types[c] = ColType(t)
		default:
			return fmt.Errorf("query: partial result frame: unknown column type %d", t)
		}
	}
	nrows, err := r.count(ncols) // every row costs >= 1 byte per column
	if err != nil {
		return err
	}
	if ncols == 0 && nrows > 0 {
		return fmt.Errorf("query: partial result frame: %d rows with no columns", nrows)
	}
	// Chunk after chunk of one stream reuses the same batch.
	b := part.Batch
	if b == nil {
		b = getBatch(types)
	} else {
		b.retype(types)
	}
	part.Batch = b
	for c, t := range types {
		switch t {
		case ColInt64:
			if r.remaining() < 8*nrows {
				return errWireTruncated
			}
			vec := growVec(b.i64[c], nrows)
			for i := 0; i < nrows; i++ {
				vec[i] = int64(binary.LittleEndian.Uint64(r.data[r.off+8*i:]))
			}
			r.off += 8 * nrows
			b.i64[c] = vec
		case ColFloat64:
			if r.remaining() < 8*nrows {
				return errWireTruncated
			}
			vec := growVec(b.f64[c], nrows)
			for i := 0; i < nrows; i++ {
				vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.data[r.off+8*i:]))
			}
			r.off += 8 * nrows
			b.f64[c] = vec
		case ColString:
			vec := b.str[c]
			for i := 0; i < nrows; i++ {
				s, err := r.str()
				if err != nil {
					return err
				}
				vec = append(vec, s)
				b.bytes += 16 + len(s)
			}
			b.str[c] = vec
		}
	}
	b.n = nrows
	b.bytes += 8 * nrows * (ncols - countStrings(types))
	return nil
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
