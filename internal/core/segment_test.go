package core

import (
	"encoding/binary"
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

// FuzzDecodeSegment feeds the one segment decoder hostile bytes: it
// must never panic; whatever it accepts must survive Encode and a
// second decode unchanged; and a segment from the copying wrapper must
// not change when its input is overwritten.
func FuzzDecodeSegment(f *testing.F) {
	members := []Tid{1, 2, 3, 5, 8, 13, 21, 34, 55}
	for _, s := range []*Segment{
		{Gid: 1, StartTime: 0, EndTime: 4900, SI: 100, MID: models.MidPMC, Params: []byte{0, 0, 40, 66}},
		{Gid: 7, StartTime: -5000, EndTime: -1000, SI: 1000, MID: models.MidSwing, Params: []byte{1, 2, 3, 4, 5, 6, 7, 8}, GapTids: []Tid{2, 55}},
		{Gid: 300, StartTime: 1 << 40, EndTime: 1 << 40, SI: 1, MID: models.MidGorilla, Params: make([]byte, 40), GapTids: []Tid{1, 2, 3, 5, 8, 13, 21, 34}},
	} {
		f.Add(s.Encode(members))
	}
	// Gid 1, EndTime 0, then an SI and a length whose product wraps the
	// time axis.
	wraps := binary.AppendUvarint(binary.AppendUvarint([]byte{1, 0}, 1<<40), 1<<40)
	f.Add(append(wraps, byte(models.MidPMC), 0, 0))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		input := append([]byte(nil), data...)
		s, err := DecodeSegment(input, members)
		if err != nil {
			return
		}
		want := *s
		want.Params = append([]byte(nil), s.Params...)
		want.GapTids = append([]Tid(nil), s.GapTids...)
		for i := range input {
			input[i] = 0xFF
		}
		same := func(a, b *Segment) bool {
			return a.Gid == b.Gid && a.StartTime == b.StartTime && a.EndTime == b.EndTime && a.SI == b.SI &&
				a.MID == b.MID && string(a.Params) == string(b.Params) && tidsEqual(a.GapTids, b.GapTids)
		}
		if !same(s, &want) {
			t.Fatalf("overwriting the input changed the decoded segment: %+v, was %+v", s, want)
		}
		if s.Length() < 1 || s.StartTime > s.EndTime {
			t.Fatalf("accepted a segment with no extent: %+v", s)
		}
		again, err := DecodeSegment(s.Encode(members), members)
		if err != nil {
			t.Fatalf("re-decoding an accepted segment: %v", err)
		}
		if !same(again, s) {
			t.Fatalf("Decode(Encode(s)) = %+v, want %+v", again, s)
		}
	})
}
