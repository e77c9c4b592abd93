package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"modelardb/internal/models"
)

func TestSegmentLength(t *testing.T) {
	s := &Segment{StartTime: 100, EndTime: 2300, SI: 100}
	if got := s.Length(); got != 23 {
		t.Fatalf("Length = %d, want 23 (the paper's Fig. 11 example)", got)
	}
}

func TestSegmentCovers(t *testing.T) {
	s := &Segment{StartTime: 1000, EndTime: 2000, SI: 100}
	tests := []struct {
		from, to int64
		want     bool
	}{
		{0, 999, false},
		{0, 1000, true},
		{2000, 3000, true},
		{2001, 3000, false},
		{1500, 1600, true},
		{0, 9999, true},
	}
	for _, tt := range tests {
		if got := s.Covers(tt.from, tt.to); got != tt.want {
			t.Errorf("Covers(%d, %d) = %v, want %v", tt.from, tt.to, got, tt.want)
		}
	}
}

func TestSegmentIndexRange(t *testing.T) {
	s := &Segment{StartTime: 1000, EndTime: 2000, SI: 100}
	tests := []struct {
		from, to int64
		i0, i1   int
		ok       bool
	}{
		{1000, 2000, 0, 10, true},
		{0, 9999, 0, 10, true},
		{1150, 1450, 2, 4, true}, // bounds rounded inward onto the grid
		{1100, 1100, 1, 1, true},
		{1101, 1199, 0, 0, false}, // between grid points
		{2100, 2200, 0, 0, false},
	}
	for _, tt := range tests {
		i0, i1, ok := s.IndexRange(tt.from, tt.to)
		if ok != tt.ok || (ok && (i0 != tt.i0 || i1 != tt.i1)) {
			t.Errorf("IndexRange(%d, %d) = (%d, %d, %v), want (%d, %d, %v)",
				tt.from, tt.to, i0, i1, ok, tt.i0, tt.i1, tt.ok)
		}
	}
}

// indexRangeDividing is IndexRange as it was before a covering range
// skipped the clipping divisions: clamp, then round both bounds inward.
func indexRangeDividing(s *Segment, from, to int64) (i0, i1 int, ok bool) {
	if !s.Covers(from, to) {
		return 0, 0, false
	}
	from, to = max(from, s.StartTime), min(to, s.EndTime)
	i0 = int((from - s.StartTime + s.SI - 1) / s.SI)
	i1 = int((to - s.StartTime) / s.SI)
	if i0 > i1 {
		return 0, 0, false
	}
	return i0, i1, true
}

// TestSegmentIndexRangeMatchesDividing: over random SIs, segments and
// ranges — on and off the grid, covering, clipping and missing the
// segment — IndexRange returns what the dividing form returns.
func TestSegmentIndexRangeMatchesDividing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	covered := 0
	for range 200000 {
		si := int64(rng.Intn(5000) + 1)
		start := rng.Int63n(1<<40) - 1<<39
		s := &Segment{StartTime: start, EndTime: start + int64(rng.Intn(100))*si, SI: si}
		span := s.EndTime - s.StartTime + 2*si
		from := s.StartTime - si + rng.Int63n(span+1)
		to := from + rng.Int63n(span+1) - si/2
		if rng.Intn(4) == 0 { // a range that holds the segment
			from, to = s.StartTime-rng.Int63n(2*si), s.EndTime+rng.Int63n(2*si)
		}
		if s.Within(from, to) {
			covered++
		}
		i0, i1, ok := s.IndexRange(from, to)
		w0, w1, wok := indexRangeDividing(s, from, to)
		if i0 != w0 || i1 != w1 || ok != wok {
			t.Fatalf("segment [%d, %d] SI %d, range [%d, %d]: IndexRange = (%d, %d, %v), dividing = (%d, %d, %v)",
				s.StartTime, s.EndTime, si, from, to, i0, i1, ok, w0, w1, wok)
		}
	}
	if covered == 0 {
		t.Fatal("no range held its segment")
	}
}

func TestSegmentTimestampAt(t *testing.T) {
	s := &Segment{StartTime: 1000, EndTime: 2000, SI: 100}
	if got := s.TimestampAt(3); got != 1300 {
		t.Fatalf("TimestampAt(3) = %d, want 1300", got)
	}
}

func TestSegmentEncodeDecodeRoundTrip(t *testing.T) {
	members := []Tid{1, 2, 3, 7}
	s := &Segment{
		Gid:       4,
		StartTime: 5000,
		EndTime:   9000,
		SI:        1000,
		MID:       models.MidSwing,
		Params:    []byte{1, 2, 3, 4, 5, 6, 7, 8},
		GapTids:   []Tid{2, 7},
	}
	data := s.Encode(members)
	got, err := DecodeSegment(data, members)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gid != s.Gid || got.StartTime != s.StartTime || got.EndTime != s.EndTime ||
		got.SI != s.SI || got.MID != s.MID {
		t.Fatalf("decoded header = %+v, want %+v", got, s)
	}
	if string(got.Params) != string(s.Params) {
		t.Fatalf("params = %v, want %v", got.Params, s.Params)
	}
	if len(got.GapTids) != 2 || got.GapTids[0] != 2 || got.GapTids[1] != 7 {
		t.Fatalf("gaps = %v, want [2 7]", got.GapTids)
	}
}

func TestSegmentEncodeNoGaps(t *testing.T) {
	members := []Tid{1, 2}
	s := &Segment{Gid: 1, StartTime: 0, EndTime: 0, SI: 10, MID: models.MidPMC, Params: []byte{0, 0, 0, 0}}
	got, err := DecodeSegment(s.Encode(members), members)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.GapTids) != 0 {
		t.Fatalf("gaps = %v, want none", got.GapTids)
	}
}

func TestSegmentEncodeManyMembers(t *testing.T) {
	// Gap bitmask must work past 8 and 64 members.
	var members []Tid
	for i := 1; i <= 70; i++ {
		members = append(members, Tid(i))
	}
	s := &Segment{
		Gid: 1, StartTime: 0, EndTime: 100, SI: 100, MID: models.MidPMC,
		Params:  []byte{0, 0, 0, 0},
		GapTids: []Tid{1, 9, 64, 65, 70},
	}
	got, err := DecodeSegment(s.Encode(members), members)
	if err != nil {
		t.Fatal(err)
	}
	if !tidsEqual(got.GapTids, s.GapTids) {
		t.Fatalf("gaps = %v, want %v", got.GapTids, s.GapTids)
	}
}

func TestDecodeSegmentErrors(t *testing.T) {
	members := []Tid{1}
	s := &Segment{Gid: 1, StartTime: 0, EndTime: 100, SI: 100, MID: models.MidPMC, Params: []byte{1, 2, 3, 4}}
	data := s.Encode(members)
	for cut := 0; cut < len(data); cut++ {
		if _, err := DecodeSegment(data[:cut], members); err == nil {
			t.Fatalf("decode of %d-byte prefix must fail", cut)
		}
	}
}

func TestSegmentInGap(t *testing.T) {
	s := &Segment{GapTids: []Tid{2, 5}}
	if !s.InGap(2) || !s.InGap(5) {
		t.Fatal("tids 2 and 5 must be in gap")
	}
	if s.InGap(1) || s.InGap(3) || s.InGap(6) {
		t.Fatal("other tids must not be in gap")
	}
}

func TestSegmentNegativeTimestamps(t *testing.T) {
	// Varint end-time encoding must handle pre-epoch timestamps.
	members := []Tid{1}
	s := &Segment{Gid: 1, StartTime: -5000, EndTime: -1000, SI: 1000, MID: models.MidPMC, Params: []byte{0, 0, 0, 0}}
	got, err := DecodeSegment(s.Encode(members), members)
	if err != nil {
		t.Fatal(err)
	}
	if got.StartTime != -5000 || got.EndTime != -1000 {
		t.Fatalf("times = [%d, %d], want [-5000, -1000]", got.StartTime, got.EndTime)
	}
}

// TestDecodeIntoAliasesAndReuses pins the two things the in-place
// decoder promises a caller that decodes many records: Params alias
// the input instead of copying it, with no spare capacity into the
// bytes that follow, and a reused Segment keeps no field of the record
// it held before.
func TestDecodeIntoAliasesAndReuses(t *testing.T) {
	members := []Tid{1, 2, 3}
	first := (&Segment{Gid: 1, StartTime: 0, EndTime: 200, SI: 100, MID: models.MidSwing,
		Params: []byte{1, 2, 3, 4, 5, 6, 7, 8}, GapTids: []Tid{1, 3}}).Encode(members)
	second := (&Segment{Gid: 2, StartTime: 300, EndTime: 300, SI: 100, MID: models.MidPMC,
		Params: []byte{9, 9, 9, 9}}).Encode(members)
	data := append(append([]byte(nil), first...), second...)

	var s Segment
	if err := s.DecodeInto(data[:len(first)], members); err != nil {
		t.Fatal(err)
	}
	if &s.Params[0] != &data[len(first)-8] || cap(s.Params) != 8 {
		t.Fatalf("Params do not alias the record exactly: cap %d", cap(s.Params))
	}
	if !tidsEqual(s.GapTids, []Tid{1, 3}) {
		t.Fatalf("gaps = %v, want [1 3]", s.GapTids)
	}
	if err := s.DecodeInto(data[len(first):], members); err != nil {
		t.Fatal(err)
	}
	if s.Gid != 2 || s.StartTime != 300 || s.MID != models.MidPMC || len(s.GapTids) != 0 || string(s.Params) != "\x09\x09\x09\x09" {
		t.Fatalf("reused segment = %+v", s)
	}
}

// decodeBlock decodes every segment of a block, copied out of it.
func decodeBlock(data []byte, members []Tid) ([]*Segment, error) {
	r, err := NewBlockReader(data)
	if err != nil {
		return nil, err
	}
	var segs []*Segment
	for r.More() {
		s := &Segment{}
		if err := r.Next(s, members); err != nil {
			return nil, err
		}
		s.Params = append([]byte(nil), s.Params...)
		segs = append(segs, s)
	}
	return segs, nil
}

func sameSegment(a, b *Segment) bool {
	return a.Gid == b.Gid && a.StartTime == b.StartTime && a.EndTime == b.EndTime && a.SI == b.SI &&
		a.MID == b.MID && string(a.Params) == string(b.Params) && tidsEqual(a.GapTids, b.GapTids)
}

// TestAppendBlockRuns: a bulk write's segments share a block while they
// are one group's on one SI grid; a change of group or SI, or a start
// off the predecessor's grid, begins the next block. Every segment,
// masked, overlapping, apart or with a MID above the head byte's six
// bits, decodes as it went in.
func TestAppendBlockRuns(t *testing.T) {
	members := []Tid{1, 2, 3, 5, 8, 13, 21, 34, 55}
	seg := func(gid Gid, start, end, si int64, mid models.MID, gaps ...Tid) *Segment {
		return &Segment{Gid: gid, StartTime: start, EndTime: end, SI: si, MID: mid, Params: []byte{byte(start), byte(end)}, GapTids: gaps}
	}
	segs := []*Segment{
		seg(1, 0, 900, 100, models.MidPMC),
		seg(1, 1000, 1900, 100, models.MidSwing, 2, 55),     // contiguous, masked
		seg(1, 1500, 2400, 100, models.MidGorilla),          // overlaps: delta −5
		seg(1, 9000, 9000, 100, models.MidUserBase+5, 1, 3), // apart: delta 65; escaped MID
		seg(1, 9050, 9150, 100, models.MidPMC),              // off the grid: a new block
		seg(1, 9200, 9300, 50, models.MidPMC),               // another SI: a new block
		seg(2, 0, 900, 100, models.MidPMC),                  // another group: a new block
	}
	var blocks [][]byte
	for rest := segs; len(rest) > 0; {
		block, n := AppendBlock(nil, rest, members)
		blocks = append(blocks, block)
		rest = rest[n:]
	}
	if len(blocks) != 4 {
		t.Fatalf("%d blocks, want 4 (a run of four, then one each)", len(blocks))
	}
	var got []*Segment
	for _, b := range blocks {
		part, err := decodeBlock(b, members)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, part...)
	}
	for i := range segs {
		if !sameSegment(got[i], segs[i]) {
			t.Errorf("segment %d decodes as %+v, want %+v", i, got[i], segs[i])
		}
	}
	// A contiguous segment after the first costs its head, length, gap
	// mask, parameter length and parameters: no Gid, SI or time.
	two, _ := AppendBlock(nil, segs[:2], members)
	if extra := len(two) - len(segs[0].Encode(members)); extra != 1+1+2+1+2 {
		t.Errorf("the second segment of a block costs %d bytes, want 7", extra)
	}
}

// TestBlockDecodeAllocatesNothing: the decoder checks every length a
// block claims against the bytes it has before using it, and decodes
// in place, so a scratch segment with room for every gap costs no
// allocation, whatever the bytes claim.
func TestBlockDecodeAllocatesNothing(t *testing.T) {
	members := []Tid{1, 2, 3, 5, 8, 13, 21, 34, 55}
	header := binary.AppendVarint(binary.AppendUvarint([]byte{BlockTag, 1}, 100), 4900)
	good, _ := AppendBlock(nil, []*Segment{
		{Gid: 1, StartTime: 0, EndTime: 900, SI: 100, MID: models.MidPMC, Params: []byte{1, 2, 3, 4}, GapTids: []Tid{3, 34}},
		{Gid: 1, StartTime: 2000, EndTime: 2900, SI: 100, MID: models.MidSwing, Params: []byte{5, 6}},
	}, members)
	for name, data := range map[string][]byte{
		"block":        good,
		"huge params":  binary.AppendUvarint(append(header, byte(models.MidPMC), 1), 1<<62),
		"huge length":  binary.AppendUvarint(append(header, byte(models.MidPMC)), 1<<63),
		"torn mask":    append(header, byte(models.MidPMC)|headMask, 1, 0xff),
		"torn entries": good[:len(good)-1],
	} {
		scratch := Segment{GapTids: make([]Tid, 0, len(members))}
		if allocs := testing.AllocsPerRun(10, func() {
			r, err := NewBlockReader(data)
			for err == nil && r.More() {
				err = r.Next(&scratch, members)
			}
		}); allocs != 0 {
			t.Errorf("%s: decoding allocated %v times", name, allocs)
		}
	}
}

// FuzzDecodeSegment feeds the block decoder, whose blocks of one are
// what DecodeSegment reads, hostile bytes. It must never panic; an accepted block must re-encode
// (AppendBlock) to blocks that decode to the same segments; bytes that
// do not form a whole last entry are refused; DecodeSegment accepts
// exactly the blocks of one segment; and a segment from it must not
// change when its input is overwritten.
func FuzzDecodeSegment(f *testing.F) {
	members := []Tid{1, 2, 3, 5, 8, 13, 21, 34, 55}
	for _, s := range []*Segment{
		{Gid: 1, StartTime: 0, EndTime: 4900, SI: 100, MID: models.MidPMC, Params: []byte{0, 0, 40, 66}},
		{Gid: 7, StartTime: -5000, EndTime: -1000, SI: 1000, MID: models.MidSwing, Params: []byte{1, 2, 3, 4, 5, 6, 7, 8}, GapTids: []Tid{2, 55}},
		{Gid: 300, StartTime: 1 << 40, EndTime: 1 << 40, SI: 1, MID: models.MidGorilla, Params: make([]byte, 40), GapTids: []Tid{1, 2, 3, 5, 8, 13, 21, 34}},
	} {
		f.Add(s.Encode(members))
	}
	// Tag, Gid 1, SI 2^40, EndTime 0, then a PMC entry whose length
	// wraps the time axis.
	wraps := binary.AppendUvarint(binary.AppendUvarint([]byte{BlockTag, 1}, 1<<40), 0)
	f.Add(binary.AppendUvarint(append(wraps, byte(models.MidPMC)), 1<<40))
	f.Add([]byte{})
	// A block of a group's run: masked, overlapping and apart segments.
	run, _ := AppendBlock(nil, []*Segment{
		{Gid: 4, StartTime: 0, EndTime: 900, SI: 100, MID: models.MidPMC, Params: []byte{1}},
		{Gid: 4, StartTime: 1000, EndTime: 1900, SI: 100, MID: models.MidSwing, Params: []byte{2, 3}, GapTids: []Tid{8}},
		{Gid: 4, StartTime: 1500, EndTime: 1500, SI: 100, MID: models.MidUserBase, Params: nil},
		{Gid: 4, StartTime: 9000, EndTime: 9900, SI: 100, MID: models.MidGorilla, Params: []byte{4, 5, 6}},
	}, members)
	f.Add(run)

	f.Fuzz(func(t *testing.T, data []byte) {
		segs, err := decodeBlock(data, members)
		one, oneErr := DecodeSegment(data, members)
		if (oneErr == nil) != (err == nil && len(segs) == 1) {
			t.Fatalf("DecodeSegment err %v, block of %d segments err %v", oneErr, len(segs), err)
		}
		if err != nil {
			return
		}
		for _, s := range segs {
			if s.Length() < 1 || s.StartTime > s.EndTime || (s.EndTime-s.StartTime)%s.SI != 0 {
				t.Fatalf("accepted a segment with no extent on its grid: %+v", s)
			}
		}
		var again []*Segment
		for rest := segs; len(rest) > 0; {
			block, n := AppendBlock(nil, rest, members)
			part, err := decodeBlock(block, members)
			if err != nil {
				t.Fatalf("re-decoding an accepted block: %v", err)
			}
			again = append(again, part...)
			rest = rest[n:]
		}
		for i := range segs {
			if !sameSegment(again[i], segs[i]) {
				t.Fatalf("segment %d re-encodes as %+v, want %+v", i, again[i], segs[i])
			}
		}
		if oneErr == nil {
			want := *one
			want.Params = append([]byte(nil), one.Params...)
			input := append([]byte(nil), data...)
			if one, _ = DecodeSegment(input, members); !sameSegment(one, &want) {
				t.Fatalf("DecodeSegment = %+v, the block reader %+v", one, &want)
			}
			for i := range input {
				input[i] = 0xFF
			}
			if !sameSegment(one, &want) {
				t.Fatalf("overwriting the input changed the decoded segment: %+v, was %+v", one, want)
			}
		}
	})
}
