package query

import (
	"errors"
	"math"
	"slices"
	"testing"

	"modelardb/internal/sqlparse"
	"modelardb/internal/wire"
)

// fuzzSeedRows builds a valid non-aggregate partial with all three
// column types populated, matching what a worker streams for a
// SELECT over the data-point view.
func fuzzSeedRows() *PartialResult {
	b := NewColumnBatch([]ColType{ColInt64, ColFloat64, ColString})
	for i := 0; i < 5; i++ {
		b.appendInt64(0, int64(i*1000))
		b.appendFloat64(1, float64(i)+0.5)
		b.appendString(2, []string{"", "park-a", "park-b"}[i%3])
		b.finishRow()
	}
	return &PartialResult{
		Columns: []string{"TS", "Value", "Park"},
		Batch:   b,
	}
}

// fuzzSeedAggregate builds a valid aggregate partial with group keys
// of every tag, scalar states, and a time-bucketed cube.
func fuzzSeedAggregate() *PartialResult {
	return &PartialResult{
		Columns:     []string{"Tid", "SUM(Value)"},
		IsAggregate: true,
		Groups: map[string]*GroupState{
			"1\x00": {
				Key:     []any{int64(1), 2.5, "park-a"},
				Scalars: []ScalarState{{Count: 3, Sum: 6, Min: 1, Max: 3}},
				Cubes: []CubeState{{
					{Bucket: 0, ScalarState: ScalarState{Count: 1, Sum: 1, Min: 1, Max: 1}},
					{Bucket: 60000, ScalarState: ScalarState{Count: 2, Sum: 5, Min: 2, Max: 3}},
				}},
			},
			"2\x00": {
				Key:     []any{int64(2)},
				Scalars: []ScalarState{{Count: 1, Sum: math.Inf(1), Min: math.Inf(1), Max: math.Inf(-1)}},
			},
		},
	}
}

// fuzzSeedHostileCube is an aggregate partial whose cube section no
// encoder writes: buckets out of order and repeated, the shape a broken
// or hostile peer can send.
func fuzzSeedHostileCube() *PartialResult {
	cell := func(bucket int64, n int64) CubeCell {
		return CubeCell{Bucket: bucket, ScalarState: ScalarState{Count: n, Sum: float64(n), Min: 1, Max: float64(n)}}
	}
	return &PartialResult{
		Columns:     []string{"HOUR", "CUBE_SUM_HOUR(*)"},
		IsAggregate: true,
		Groups: map[string]*GroupState{"": {
			Cubes: []CubeState{{cell(7200000, 1), cell(0, 2), cell(3600000, 3), cell(0, 4), cell(-3600000, 5)}},
		}},
	}
}

// TestDecodePartialTrailingBytes: a valid chunk followed by bytes no
// encoder writes is refused, like a cluster call body with trailing
// bytes.
func TestDecodePartialTrailingBytes(t *testing.T) {
	for name, part := range map[string]*PartialResult{
		"rows":      fuzzSeedRows(),
		"aggregate": fuzzSeedAggregate(),
		"empty":     {},
	} {
		valid := EncodePartial(nil, part)
		if err := DecodePartial(valid, &PartialResult{}); err != nil {
			t.Fatalf("%s: valid chunk refused: %v", name, err)
		}
		for _, tail := range [][]byte{{0}, {0xAB, 0xCD}} {
			got := &PartialResult{}
			if err := DecodePartial(append(slices.Clip(valid), tail...), got); !errors.Is(err, wire.ErrMalformed) {
				t.Errorf("%s with trailing %x: err = %v, want wire.ErrMalformed", name, tail, err)
			}
			got.ReleaseBatch()
		}
	}
}

// FuzzDecodePartial drives the typed-column chunk-frame decoder with
// arbitrary bytes: whatever the input, the decode must not panic and
// must never allocate beyond what the frame's size can justify (the
// count guards), and any frame that decodes successfully must
// round-trip — re-encoding the decoded partial and decoding that must
// yield the same rows, columns and group shapes. The seed corpus is
// valid encodes of both partial kinds plus truncations at varied
// offsets and bit flips, the frames a torn TCP stream or broken peer
// would actually produce. Every decoded cube state must be strictly
// ascending by bucket — duplicates merged — and survive the round trip
// cell for cell. Every decoded partial then takes the master's path for
// each of a set of queries: PartialChecker, MergePartial of the chunks
// it admits, and Finalize, which checks the partials itself; each must
// answer with a result or an error, never a panic.
func FuzzDecodePartial(f *testing.F) {
	eng := newFixture(f).eng
	var queries []*sqlparse.Query
	for _, sql := range []string{
		"SELECT Tid, SUM(Value) FROM DataPoint GROUP BY Tid",
		"SELECT Tid, Value, Park, COUNT(*) FROM DataPoint GROUP BY Tid, Value, Park ORDER BY Value DESC LIMIT 3",
		"SELECT SUM_S(*), MIN_S(*) FROM Segment",
		"SELECT CUBE_SUM_HOUR(*) FROM Segment",
		"SELECT Tid, CUBE_AVG_HOUR(*), CUBE_MAX_HOUR(*) FROM Segment GROUP BY Tid ORDER BY Tid DESC",
		"SELECT TS, Value, Park FROM DataPoint ORDER BY Park DESC, Value LIMIT 4",
	} {
		queries = append(queries, mustParse(f, sql))
	}
	for _, part := range []*PartialResult{fuzzSeedRows(), fuzzSeedAggregate(), fuzzSeedHostileCube(), {}} {
		valid := EncodePartial(nil, part)
		f.Add(valid)
		for cut := 1; cut < len(valid); cut += 3 {
			f.Add(append([]byte(nil), valid[:cut]...))
		}
		if len(valid) > 2 {
			flipped := append([]byte(nil), valid...)
			flipped[len(flipped)/2] ^= 0xFF
			f.Add(flipped)
			// Corrupt the flags byte and the first count specifically:
			// those steer every later branch of the decoder.
			reflagged := append([]byte(nil), valid...)
			reflagged[1] ^= 0x03
			f.Add(reflagged)
			recounted := append([]byte(nil), valid...)
			recounted[2] = 0xFF
			f.Add(recounted)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{partialWireVersion + 1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		d1 := &PartialResult{}
		if err := DecodePartial(data, d1); err != nil {
			return // rejected cleanly; that is the contract
		}
		// Round-trip: what decoded must re-encode to a decodable frame
		// describing the same result.
		enc := EncodePartial(nil, d1)
		d2 := &PartialResult{}
		if err := DecodePartial(enc, d2); err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if d2.IsAggregate != d1.IsAggregate || d2.NumRows() != d1.NumRows() ||
			len(d2.Columns) != len(d1.Columns) || len(d2.Groups) != len(d1.Groups) {
			t.Fatalf("round-trip changed shape: rows %d->%d cols %d->%d groups %d->%d",
				d1.NumRows(), d2.NumRows(), len(d1.Columns), len(d2.Columns), len(d1.Groups), len(d2.Groups))
		}
		for i, col := range d1.Columns {
			if d2.Columns[i] != col {
				t.Fatalf("round-trip changed column %d: %q -> %q", i, col, d2.Columns[i])
			}
		}
		if d1.Batch != nil {
			if d2.Batch == nil || !slices.Equal(d1.Batch.Types(), d2.Batch.Types()) {
				t.Fatal("round-trip changed batch column types")
			}
			// Compare cells by bit pattern so NaNs produced by corrupted
			// float bytes still compare equal to themselves.
			for c, ct := range d1.Batch.Types() {
				for i := 0; i < d1.Batch.Len(); i++ {
					switch ct {
					case ColInt64:
						if d1.Batch.Int64At(i, c) != d2.Batch.Int64At(i, c) {
							t.Fatalf("round-trip changed cell (%d,%d)", i, c)
						}
					case ColFloat64:
						if math.Float64bits(d1.Batch.Float64At(i, c)) != math.Float64bits(d2.Batch.Float64At(i, c)) {
							t.Fatalf("round-trip changed cell (%d,%d)", i, c)
						}
					case ColString:
						if d1.Batch.StringAt(i, c) != d2.Batch.StringAt(i, c) {
							t.Fatalf("round-trip changed cell (%d,%d)", i, c)
						}
					}
				}
			}
		}
		for key, g1 := range d1.Groups {
			g2 := d2.Groups[key]
			if g2 == nil {
				t.Fatalf("round-trip lost group %q", key)
			}
			if len(g2.Key) != len(g1.Key) || len(g2.Scalars) != len(g1.Scalars) || len(g2.Cubes) != len(g1.Cubes) {
				t.Fatalf("round-trip changed group %q shape", key)
			}
			for ci, c1 := range g1.Cubes {
				for j := 1; j < len(c1); j++ {
					if c1[j-1].Bucket >= c1[j].Bucket {
						t.Fatalf("group %q cube %d: bucket %d after %d, want strictly ascending", key, ci, c1[j].Bucket, c1[j-1].Bucket)
					}
				}
				c2 := g2.Cubes[ci]
				if len(c2) != len(c1) {
					t.Fatalf("group %q cube %d: round-trip changed %d buckets to %d", key, ci, len(c1), len(c2))
				}
				for j := range c1 {
					if !sameCell(c1[j], c2[j]) {
						t.Fatalf("group %q cube %d: round-trip changed cell %d: %+v -> %+v", key, ci, j, c1[j], c2[j])
					}
				}
			}
		}
		for _, q := range queries {
			check, err := eng.PartialChecker(q)
			if err != nil {
				t.Fatal(err)
			}
			acc := &PartialResult{}
			for _, part := range []*PartialResult{d1, d2} {
				if check(part) == nil {
					MergePartial(acc, part)
				}
			}
			// Only an error may stop them; a panic fails the fuzz.
			eng.Finalize(q, []*PartialResult{acc})
			eng.Finalize(q, []*PartialResult{d1, d2})
		}
	})
}

// sameCell compares two cube cells by bit pattern, so NaNs decoded from
// corrupted bytes compare equal to themselves.
func sameCell(a, b CubeCell) bool {
	return a.Bucket == b.Bucket && a.Count == b.Count &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}
