package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

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
}

// Length returns the number of sampling intervals the segment covers.
func (s *Segment) Length() int {
	return int((s.EndTime-s.StartTime)/s.SI) + 1
}

// Covers reports whether the segment interval intersects [from, to].
func (s *Segment) Covers(from, to int64) bool {
	return s.EndTime >= from && s.StartTime <= to
}

// IndexRange clamps [from, to] to the segment and converts it to
// inclusive grid indices. ok is false when the ranges do not intersect.
func (s *Segment) IndexRange(from, to int64) (i0, i1 int, ok bool) {
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

// gapMask encodes GapTids as a bitmask over the sorted group member
// positions, as the Cassandra schema of §3.3 stores them.
func gapMask(gaps []Tid, members []Tid) []byte {
	if len(gaps) == 0 {
		return nil
	}
	mask := make([]byte, (len(members)+7)/8)
	for _, t := range gaps {
		i := sort.Search(len(members), func(i int) bool { return members[i] >= t })
		if i < len(members) && members[i] == t {
			mask[i/8] |= 1 << (i % 8)
		}
	}
	return mask
}

// appendGapTids inverts gapMask, appending the gap Tids to dst.
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

// Encode serializes the segment for the segment store. Following the
// paper's Cassandra schema (§3.3) the start time is not stored; the
// segment's length is stored instead and the start time recomputed as
// EndTime - (Size-1)*SI. members must be the sorted Tids of the
// segment's group, used to pack the gap bitmask.
func (s *Segment) Encode(members []Tid) []byte {
	return s.AppendEncode(nil, members)
}

// AppendEncode appends the segment's Encode bytes to dst, so a bulk
// write encodes its records into one buffer.
func (s *Segment) AppendEncode(dst []byte, members []Tid) []byte {
	mask := gapMask(s.GapTids, members)
	dst = slices.Grow(dst, 32+len(mask)+len(s.Params))
	dst = binary.AppendUvarint(dst, uint64(s.Gid))
	dst = binary.AppendVarint(dst, s.EndTime)
	dst = binary.AppendUvarint(dst, uint64(s.SI))
	dst = binary.AppendUvarint(dst, uint64(s.Length()))
	dst = append(dst, byte(s.MID))
	dst = binary.AppendUvarint(dst, uint64(len(mask)))
	dst = append(dst, mask...)
	dst = binary.AppendUvarint(dst, uint64(len(s.Params)))
	return append(dst, s.Params...)
}

// DecodeInto parses a segment encoded by Encode into s, overwriting
// every field; it is the only segment decoder. members must be the
// same sorted group member Tids passed to Encode. Nothing is copied:
// s.Params aliases data, so data must stay untouched for as long as s
// is used, and GapTids is rebuilt in s.GapTids' own backing array,
// which lets a caller that decodes many records into one scratch
// Segment allocate none. On error s is left partly overwritten.
//
// It reads with its own inline varint calls rather than wire.Reader:
// every scanned segment goes through here, and Reader.Uvarint does not
// inline, which made BenchmarkFileStoreScan/clustered about 20 % slower
// (2.29–2.74 ms → 2.76–3.15 ms, 6 alternating runs on 2 vCPUs).
func (s *Segment) DecodeInto(data []byte, members []Tid) error {
	rest := data
	next := func() (uint64, error) {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return 0, fmt.Errorf("core: segment decode: truncated varint")
		}
		rest = rest[n:]
		return v, nil
	}
	gid, err := next()
	if err != nil {
		return err
	}
	s.Gid = Gid(gid)
	end, n := binary.Varint(rest)
	if n <= 0 {
		return fmt.Errorf("core: segment decode: truncated end time")
	}
	rest = rest[n:]
	s.EndTime = end
	si, err := next()
	if err != nil {
		return err
	}
	s.SI = int64(si)
	if s.SI <= 0 {
		return fmt.Errorf("core: segment decode: non-positive SI %d", s.SI)
	}
	length, err := next()
	if err != nil {
		return err
	}
	if length == 0 {
		return fmt.Errorf("core: segment decode: zero length")
	}
	// The covered span must fit an int64 below EndTime, or StartTime
	// would wrap around and Length would disagree with the record.
	if length-1 > math.MaxInt64/si || s.EndTime < math.MinInt64+int64((length-1)*si) {
		return fmt.Errorf("core: segment decode: length %d overflows the time axis", length)
	}
	s.StartTime = s.EndTime - int64(length-1)*s.SI
	if len(rest) < 1 {
		return fmt.Errorf("core: segment decode: missing MID")
	}
	s.MID = models.MID(rest[0])
	rest = rest[1:]
	maskLen, err := next()
	if err != nil {
		return err
	}
	if uint64(len(rest)) < maskLen {
		return fmt.Errorf("core: segment decode: truncated gap mask")
	}
	s.GapTids = appendGapTids(s.GapTids[:0], rest[:maskLen], members)
	rest = rest[maskLen:]
	paramLen, err := next()
	if err != nil {
		return err
	}
	if uint64(len(rest)) < paramLen {
		return fmt.Errorf("core: segment decode: truncated parameters")
	}
	// The capacity is clipped so an append to Params can never write
	// into whatever follows the record in the caller's buffer.
	s.Params = rest[:paramLen:paramLen]
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

// StoredSize returns the segment's serialized size in bytes, the
// quantity minimized by model selection and reported by the storage
// experiments.
func (s *Segment) StoredSize(members []Tid) int {
	return len(s.Encode(members))
}
