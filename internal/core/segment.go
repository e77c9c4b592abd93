package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"modelardb/internal/models"
)

// Segment is the 6-tuple of Definition 9: a bounded time interval of a
// time series group represented by one model within an error bound.
// Gaps are stored as the Tids not represented by the segment (the
// second method of §3.2, Fig. 5), so a segment always represents a
// static set of series.
type Segment struct {
	Gid       Gid
	StartTime int64
	EndTime   int64
	SI        int64
	MID       models.MID
	Params    []byte
	// GapTids lists, sorted, the group members in a gap for the whole
	// segment interval (the Gts function of Definition 9).
	GapTids []Tid
	// Memo is the segment's memo slot in the store's index, nil for a
	// segment that is not stored. The index rebuilds it on reopen and
	// truncation, and it is set only by the store's reads.
	Memo *Memo
}

// Memo is a stored segment's memo slot: the SUM, MIN and MAX over the
// segment's whole range of each position of its model view, exactly as
// the view's SumRange, MinRange and MaxRange returned them to the first
// query that decoded the view and folded the whole range. A stored
// segment never changes, so neither do they. The slot is written only
// through its atomic pointer, from nil to a slice nobody writes again;
// two queries that race to fill it store equal numbers.
type Memo struct {
	folds atomic.Pointer[[]float64]
}

// Load returns the memo's folds of a view of n positions — the sums at
// [0, n), the minima at [n, 2n), the maxima at [2n, 3n) — or nil when
// the slot is empty, holds another width, or m is nil.
func (m *Memo) Load(n int) []float64 {
	if m == nil {
		return nil
	}
	if p := m.folds.Load(); p != nil && len(*p) == 3*n {
		return *p
	}
	return nil
}

// Store fills the slot with folds laid out as Load returns them; folds
// must not be written afterwards.
func (m *Memo) Store(folds []float64) {
	m.folds.Store(&folds)
}

// Length returns the number of sampling intervals the segment covers.
func (s *Segment) Length() int {
	return int((s.EndTime-s.StartTime)/s.SI) + 1
}

// Covers reports whether the segment interval intersects [from, to].
func (s *Segment) Covers(from, to int64) bool {
	return s.EndTime >= from && s.StartTime <= to
}

// Within reports whether [from, to] holds the whole segment interval.
func (s *Segment) Within(from, to int64) bool {
	return from <= s.StartTime && to >= s.EndTime
}

// IndexRange clamps [from, to] to the segment and converts it to
// inclusive grid indices. ok is false when the ranges do not intersect.
// A range that holds the whole segment costs no clipping division.
func (s *Segment) IndexRange(from, to int64) (i0, i1 int, ok bool) {
	if s.Within(from, to) {
		return 0, s.Length() - 1, true
	}
	if !s.Covers(from, to) {
		return 0, 0, false
	}
	if from < s.StartTime {
		from = s.StartTime
	}
	if to > s.EndTime {
		to = s.EndTime
	}
	// Round the clamped bounds inward onto the grid.
	i0 = int((from - s.StartTime + s.SI - 1) / s.SI)
	i1 = int((to - s.StartTime) / s.SI)
	if i0 > i1 {
		return 0, 0, false
	}
	return i0, i1, true
}

// TimestampAt returns the timestamp of grid index i.
func (s *Segment) TimestampAt(i int) int64 {
	return s.StartTime + int64(i)*s.SI
}

// InGap reports whether tid is in a gap for this segment.
func (s *Segment) InGap(tid Tid) bool {
	i := sort.Search(len(s.GapTids), func(i int) bool { return s.GapTids[i] >= tid })
	return i < len(s.GapTids) && s.GapTids[i] == tid
}

// The segment log stores segments in blocks. A block is a run of one
// group's segments that share an SI and its grid, written in
// (Gid, EndTime) order as a sorted bulk write leaves them. Following the paper's Cassandra
// schema (§3.3), no start time is stored: each segment's length is, and
// the block header names the group, its SI and its first EndTime once.
// Little more than the model parameters is left per segment:
//
//	block   tag       1 byte   BlockTag
//	        gid       uvarint
//	        si        uvarint  > 0
//	        end       varint   EndTime of the first segment
//	        entry…             one or more, to the end of the block
//	entry   head      1 byte   MID (bits 0–5), gap mask (bit 6), start delta (bit 7)
//	        mid       1 byte   the MID, when bits 0–5 are 63
//	        length    uvarint  sampling intervals covered, ≥ 1
//	        mask      bytes    (members+7)/8 bytes of gap bitmask, when bit 6 is set
//	        delta     varint   when bit 7 is set: SIs between the predecessor's
//	                           next tick and this segment's start
//	        paramLen  uvarint
//	        params    bytes
//
// The first entry ends at the header's EndTime and starts length−1 SIs
// earlier. Every later entry starts one SI after its predecessor ends,
// plus delta SIs (negative when the two overlap, as the parts of a
// split group do), and ends length−1 SIs later. Encode writes a block
// of one segment.
const (
	// BlockTag is a block's first byte. Segment records of the format
	// that blocks replaced began with their Gid as a uvarint, and Gids
	// start at 1, so none began with it.
	BlockTag byte = 0

	headMID   = 0x3f // the MID, or midEscape
	midEscape = 0x3f // the MID does not fit bits 0–5 and follows the head
	headMask  = 0x40
	headDelta = 0x80

	// maxBlockBytes ends a block once it has grown past it, keeping
	// each frame of the log far below the 1 GiB that durable.Scan
	// takes for corruption.
	maxBlockBytes = 1 << 20
)

// maskLen is the size of a group's gap bitmask.
func maskLen(members []Tid) int { return (len(members) + 7) / 8 }

// appendGapMask appends GapTids as a bitmask over the sorted group
// member positions, as the Cassandra schema of §3.3 stores them.
func appendGapMask(dst []byte, gaps []Tid, members []Tid) []byte {
	n := len(dst)
	dst = append(dst, make([]byte, maskLen(members))...)
	mask := dst[n:]
	for _, t := range gaps {
		i := sort.Search(len(members), func(i int) bool { return members[i] >= t })
		if i < len(members) && members[i] == t {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return dst
}

// appendGapTids inverts appendGapMask, appending the gap Tids to dst.
func appendGapTids(dst []Tid, mask []byte, members []Tid) []Tid {
	for b, bits := range mask {
		for i := b * 8; bits != 0 && i < len(members); i, bits = i+1, bits>>1 {
			if bits&1 != 0 {
				dst = append(dst, members[i])
			}
		}
	}
	return dst
}

// addSIs returns t + k·si; ok is false when that leaves the int64 axis.
// si must be positive.
func addSIs(t, k, si int64) (int64, bool) {
	if k > math.MaxInt64/si || k < math.MinInt64/si {
		return 0, false
	}
	p := k * si
	if (p > 0 && t > math.MaxInt64-p) || (p < 0 && t < math.MinInt64-p) {
		return 0, false
	}
	return t + p, true
}

// Encode serializes the segment as a block of one. members must be the
// sorted Tids of the segment's group, used to pack the gap bitmask.
func (s *Segment) Encode(members []Tid) []byte {
	dst, _ := AppendBlock(nil, []*Segment{s}, members)
	return dst
}

// AppendBlock appends to dst one block holding the longest prefix of
// segs that can share one, and returns the extended dst and the length
// of that prefix, at least 1. A segment joins its predecessor's block
// when both have one Gid and one SI and it starts a whole number of
// SIs after the predecessor ends, as a group's segments do, until the
// block passes maxBlockBytes. members must be the sorted Tids of the
// group, used to pack the gap bitmasks.
func AppendBlock(dst []byte, segs []*Segment, members []Tid) ([]byte, int) {
	first := segs[0]
	start := len(dst)
	dst = append(dst, BlockTag)
	dst = binary.AppendUvarint(dst, uint64(first.Gid))
	dst = binary.AppendUvarint(dst, uint64(first.SI))
	dst = binary.AppendVarint(dst, first.EndTime)
	dst = first.appendEntry(dst, members, 0)
	n := 1
	for ; n < len(segs) && len(dst)-start < maxBlockBytes; n++ {
		delta, ok := segs[n].startDelta(segs[n-1])
		if !ok {
			break
		}
		dst = segs[n].appendEntry(dst, members, delta)
	}
	return dst, n
}

// startDelta returns how many SIs s starts after the tick that follows
// prev's end; ok is false when s cannot follow prev in a block.
func (s *Segment) startDelta(prev *Segment) (delta int64, ok bool) {
	if s.Gid != prev.Gid || s.SI != prev.SI || (s.EndTime-s.StartTime)%s.SI != 0 {
		return 0, false
	}
	next, ok := addSIs(prev.EndTime, 1, s.SI)
	if !ok {
		return 0, false
	}
	d := s.StartTime - next
	if (s.StartTime^next)&(s.StartTime^d) < 0 || d%s.SI != 0 {
		return 0, false // the difference overflows or is off the grid
	}
	return d / s.SI, true
}

// appendEntry appends the segment's block entry; delta is its start
// delta, 0 for a block's first entry.
func (s *Segment) appendEntry(dst []byte, members []Tid, delta int64) []byte {
	head := byte(s.MID)
	if s.MID >= midEscape {
		head = midEscape
	}
	if len(s.GapTids) > 0 {
		head |= headMask
	}
	if delta != 0 {
		head |= headDelta
	}
	dst = slices.Grow(dst, 2+3*binary.MaxVarintLen64+maskLen(members)+len(s.Params))
	dst = append(dst, head)
	if head&headMID == midEscape {
		dst = append(dst, byte(s.MID))
	}
	dst = binary.AppendUvarint(dst, uint64(s.Length()))
	if head&headMask != 0 {
		dst = appendGapMask(dst, s.GapTids, members)
	}
	if head&headDelta != 0 {
		dst = binary.AppendVarint(dst, delta)
	}
	dst = binary.AppendUvarint(dst, uint64(len(s.Params)))
	return append(dst, s.Params...)
}

// blockError is a decoding error. Its messages are constants, so
// refusing hostile bytes allocates nothing either.
type blockError string

func (e blockError) Error() string { return "core: block decode: " + string(e) }

// BlockReader decodes a block segment by segment.
type BlockReader struct {
	data  []byte
	off   int
	gid   Gid
	si    int64
	end   int64 // EndTime of the last entry read, or the header's
	first bool
}

// NewBlockReader reads the header of the block data.
func NewBlockReader(data []byte) (BlockReader, error) {
	r := BlockReader{data: data, first: true}
	if len(data) == 0 || data[0] != BlockTag {
		return r, blockError("no block tag")
	}
	r.off = 1
	gid, n := binary.Uvarint(data[r.off:])
	if n <= 0 || gid > math.MaxInt32 {
		return r, blockError("bad Gid")
	}
	r.off += n
	si, n := binary.Uvarint(data[r.off:])
	if n <= 0 || si == 0 || si > math.MaxInt64 {
		return r, blockError("bad SI")
	}
	r.off += n
	end, n := binary.Varint(data[r.off:])
	if n <= 0 {
		return r, blockError("truncated end time")
	}
	r.off += n
	if r.off == len(data) {
		return r, blockError("no segment")
	}
	r.gid, r.si, r.end = Gid(gid), int64(si), end
	return r, nil
}

// Gid returns the block's group.
func (r *BlockReader) Gid() Gid { return r.gid }

// More reports whether a segment is left to read.
func (r *BlockReader) More() bool { return r.off < len(r.data) }

// Offset returns how many bytes of the block have been read: after the
// header before the first Next, then after each segment's entry.
func (r *BlockReader) Offset() int { return r.off }

// Next decodes the next segment into s, overwriting every field, as
// Segment.DecodeInto does: s.Params alias the block, GapTids is rebuilt
// in s.GapTids' own backing array, and Memo is nil. members must be the
// sorted Tids the block was encoded with. On error s is left partly
// overwritten and the reader must not be used again.
func (r *BlockReader) Next(s *Segment, members []Tid) error {
	s.Gid, s.SI, s.Memo = r.gid, r.si, nil
	length, delta, n, err := s.decodeEntry(r.data[r.off:], members)
	if err != nil {
		return err
	}
	var ok bool
	if r.first {
		s.EndTime = r.end
		s.StartTime, ok = addSIs(r.end, -int64(length-1), r.si)
		ok = ok && delta == 0
	} else if s.StartTime, ok = addSIs(r.end, 1, r.si); ok {
		if s.StartTime, ok = addSIs(s.StartTime, delta, r.si); ok {
			s.EndTime, ok = addSIs(s.StartTime, int64(length-1), r.si)
		}
	}
	if !ok {
		return blockError("segment leaves the time axis")
	}
	r.off += n
	r.end, r.first = s.EndTime, false
	return nil
}

// DecodeEntry decodes one block entry into s, whose Gid, SI,
// StartTime, EndTime and Memo the caller has set from the segment log's
// index; the rest is as for BlockReader.Next. The entry must hold
// exactly the segment, and its length must agree with the times.
func (s *Segment) DecodeEntry(entry []byte, members []Tid) error {
	if s.SI <= 0 {
		return fmt.Errorf("core: segment decode: non-positive SI %d", s.SI)
	}
	length, _, n, err := s.decodeEntry(entry, members)
	if err != nil {
		return err
	}
	if n != len(entry) {
		return fmt.Errorf("core: segment decode: %d bytes after the entry", len(entry)-n)
	}
	// decodeEntry has checked that (length−1)·SI fits an int64.
	if s.StartTime+int64(length-1)*s.SI != s.EndTime {
		return fmt.Errorf("core: segment decode: length %d does not span [%d, %d]", length, s.StartTime, s.EndTime)
	}
	return nil
}

// decodeEntry parses the entry at the start of data into s.MID,
// s.GapTids and s.Params, given s.SI, and returns its length, its start
// delta and the bytes it took. A length too long for the time axis at
// s.SI is refused here.
//
// It reads with its own inline varint calls rather than wire.Reader:
// every scanned segment goes through here, and Reader.Uvarint does not
// inline, which made BenchmarkFileStoreScan/clustered about 20 % slower
// (2.29–2.74 ms → 2.76–3.15 ms, 6 alternating runs on 2 vCPUs).
func (s *Segment) decodeEntry(data []byte, members []Tid) (length uint64, delta int64, n int, err error) {
	if len(data) < 1 {
		return 0, 0, 0, blockError("missing head")
	}
	head := data[0]
	rest := data[1:]
	s.MID = models.MID(head & headMID)
	if head&headMID == midEscape {
		if len(rest) < 1 {
			return 0, 0, 0, blockError("missing MID")
		}
		s.MID = models.MID(rest[0])
		rest = rest[1:]
	}
	length, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, 0, blockError("truncated length")
	}
	rest = rest[k:]
	// The covered span must fit an int64, or a time derived from it
	// would wrap around and Length would disagree with the entry.
	if hi, lo := bits.Mul64(length-1, uint64(s.SI)); length == 0 || hi != 0 || lo > math.MaxInt64 {
		return 0, 0, 0, blockError("length overflows the time axis")
	}
	s.GapTids = s.GapTids[:0]
	if head&headMask != 0 {
		m := maskLen(members)
		if len(rest) < m {
			return 0, 0, 0, blockError("truncated gap mask")
		}
		s.GapTids = appendGapTids(s.GapTids, rest[:m], members)
		rest = rest[m:]
	}
	if head&headDelta != 0 {
		if delta, k = binary.Varint(rest); k <= 0 {
			return 0, 0, 0, blockError("truncated start delta")
		}
		rest = rest[k:]
	}
	paramLen, k := binary.Uvarint(rest)
	if k <= 0 {
		return 0, 0, 0, blockError("truncated parameter length")
	}
	rest = rest[k:]
	if uint64(len(rest)) < paramLen {
		return 0, 0, 0, blockError("truncated parameters")
	}
	// The capacity is clipped so an append to Params can never write
	// into whatever follows the entry in the caller's buffer.
	s.Params = rest[:paramLen:paramLen]
	return length, delta, len(data) - len(rest) + int(paramLen), nil
}

// DecodeInto parses a segment encoded by Encode — a block of one — into
// s, overwriting every field. members must be the same sorted group
// member Tids passed to Encode. Nothing is copied: s.Params aliases
// data, so data must stay untouched for as long as s is used, and
// GapTids is rebuilt in s.GapTids' own backing array, which lets a
// caller that decodes many segments into one scratch Segment allocate
// none. On error s is left partly overwritten.
func (s *Segment) DecodeInto(data []byte, members []Tid) error {
	r, err := NewBlockReader(data)
	if err != nil {
		return err
	}
	if err := r.Next(s, members); err != nil {
		return err
	}
	if r.More() {
		return fmt.Errorf("core: segment decode: %d bytes after the segment", len(data)-r.Offset())
	}
	return nil
}

// DecodeSegment is DecodeInto for callers that keep data for
// themselves: it allocates the segment and copies the parameters out.
func DecodeSegment(data []byte, members []Tid) (*Segment, error) {
	s := &Segment{}
	if err := s.DecodeInto(data, members); err != nil {
		return nil, err
	}
	s.Params = append([]byte(nil), s.Params...)
	return s, nil
}

// StoredSize returns the segment's size as a block of one, what a
// trickle flush of it costs the segment log before framing.
func (s *Segment) StoredSize(members []Tid) int {
	return len(s.Encode(members))
}
