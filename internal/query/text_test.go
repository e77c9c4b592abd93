package query

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// textPieces are the string fragments the renderer property test
// builds cells from: every byte encoding/csv quotes on, the leading
// spaces it quotes on (ASCII, tab, U+00A0, U+0085, U+2028), its `\.`
// special case, JSON's control and escape bytes and invalid UTF-8.
var textPieces = []string{
	",", `"`, "\r", "\n", " ", "\t", "\u00a0", "\u0085", "\u2028", `\.`, `\`, "",
	"\xff\xfe", "\xc3", "\x00", "\x1f", "\x7f", "é", "a", "Aalborg", "T1",
}

// textFloats are the float cells the property test draws from besides
// random ones.
var textFloats = []float64{
	math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, 2.2250738585072014e-308 / 3,
	math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-7, 0.1, float64(float32(0.1)),
}

// randomTextBatch builds a batch of random typed cells; a quarter of
// the float cells of a float column are NULL when nulls is set.
func randomTextBatch(rng *rand.Rand, nulls bool) (*ColumnBatch, []string) {
	ncols := 1 + rng.Intn(5)
	types := make([]ColType, ncols)
	cols := make([]string, ncols)
	for c := range types {
		types[c] = []ColType{ColInt64, ColFloat64, ColString}[rng.Intn(3)]
		cols[c] = randomTextString(rng)
	}
	b := NewColumnBatch(types)
	for range rng.Intn(40) {
		for c, t := range types {
			switch t {
			case ColInt64:
				v := []int64{math.MinInt64, math.MaxInt64, 0, -1, rng.Int63() - rng.Int63()}[rng.Intn(5)]
				b.appendInt64(c, v)
			case ColFloat64:
				switch {
				case nulls && rng.Intn(4) == 0:
					b.appendNull(c)
				case rng.Intn(2) == 0:
					b.appendFloat64(c, textFloats[rng.Intn(len(textFloats))])
				default:
					b.appendFloat64(c, rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)))
				}
			case ColString:
				b.appendString(c, randomTextString(rng))
			}
		}
		b.finishRow()
	}
	return b, cols
}

func randomTextString(rng *rand.Rand) string {
	var sb strings.Builder
	for range rng.Intn(4) {
		sb.WriteString(textPieces[rng.Intn(len(textPieces))])
	}
	return sb.String()
}

// cursorOver returns a cursor positioned before the first row of b.
func cursorOver(b *ColumnBatch, cols []string) *Rows {
	return &Rows{cols: cols, types: b.types, cur: b, row: -1}
}

// at positions r on row i of its batch, as Next does.
func (r *Rows) at(i int) *Rows {
	r.row, r.onRow = i, true
	return r
}

// cellText is the text the line protocol and CSV have always given a
// cell: strconv's shortest round-trip spelling of the vector value (so
// a NULL aggregate is its vector's 0) and strings verbatim.
func cellText(b *ColumnBatch, row, c int) string {
	switch b.types[c] {
	case ColInt64:
		return strconv.FormatInt(b.Int64At(row, c), 10)
	case ColFloat64:
		return strconv.FormatFloat(b.Float64At(row, c), 'g', -1, 64)
	default:
		return b.StringAt(row, c)
	}
}

// TestAppendRowCSVMatchesEncodingCSV renders random typed batches with
// AppendRow and AppendHeader and requires the bytes encoding/csv
// writes for the same cells, the line protocol's tab-joined cells, and
// the JSON the boxed reference renderer below gives, which must also
// be valid JSON.
func TestAppendRowCSVMatchesEncodingCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for iter := range 500 {
		b, cols := randomTextBatch(rng, iter%2 == 1)
		r := cursorOver(b, cols)

		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.Write(cols)
		got := r.AppendHeader(nil, TextCSV)
		wantTSV := strings.Join(cols, "\t") + "\n"
		gotTSV := r.AppendHeader(nil, TextTSV)
		wantJSON := refAppendJSONStrings(nil, cols)
		gotJSON := r.AppendHeader(nil, TextJSON)
		for i := range b.Len() {
			rec := make([]string, len(cols))
			boxed := []byte{'['}
			for c := range rec {
				rec[c] = cellText(b, i, c)
				if c > 0 {
					boxed = append(boxed, ',')
				}
				boxed = refAppendJSONValue(boxed, b.ValueAt(i, c))
			}
			boxed = append(boxed, ']')
			cw.Write(rec)
			wantTSV += strings.Join(rec, "\t") + "\n"
			got = r.at(i).AppendRow(got, TextCSV)
			gotTSV = r.AppendRow(gotTSV, TextTSV)
			row := r.AppendRow(nil, TextJSON)
			if !bytes.Equal(row, boxed) {
				t.Fatalf("iteration %d row %d: JSON %q, boxed reference %q", iter, i, row, boxed)
			}
			if !json.Valid(row) {
				t.Fatalf("iteration %d row %d: invalid JSON %q", iter, i, row)
			}
			wantJSON = append(wantJSON, boxed...)
			gotJSON = append(gotJSON, row...)
		}
		cw.Flush()
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("iteration %d: CSV\n%q\nencoding/csv\n%q", iter, got, want.Bytes())
		}
		if string(gotTSV) != wantTSV {
			t.Fatalf("iteration %d: TSV\n%q\nwant\n%q", iter, gotTSV, wantTSV)
		}
		if !bytes.Equal(gotJSON, wantJSON) {
			t.Fatalf("iteration %d: JSON header or rows differ:\n%q\n%q", iter, gotJSON, wantJSON)
		}
	}
}

// TestAppendRowOffRow checks that a cursor not on a row renders
// nothing, as Row returns nil.
func TestAppendRowOffRow(t *testing.T) {
	b, cols := randomTextBatch(rand.New(rand.NewSource(1)), false)
	r := cursorOver(b, cols)
	for _, f := range []TextFormat{TextCSV, TextTSV, TextJSON} {
		if got := r.AppendRow([]byte("x"), f); string(got) != "x" {
			t.Fatalf("format %d off a row appended %q", f, got)
		}
	}
}

// The boxed JSON cell renderer the HTTP API used before AppendRow,
// kept as the reference the typed renderer must match byte for byte.

func refAppendJSONStrings(dst []byte, ss []string) []byte {
	dst = append(dst, '[')
	for i, s := range ss {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = refAppendJSONString(dst, s)
	}
	return append(dst, ']')
}

func refAppendJSONValue(dst []byte, v any) []byte {
	switch x := v.(type) {
	case int64:
		return strconv.AppendInt(dst, x, 10)
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return append(dst, "null"...)
		}
		return strconv.AppendFloat(dst, x, 'g', -1, 64)
	case string:
		return refAppendJSONString(dst, x)
	default:
		return append(dst, "null"...)
	}
}

func refAppendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			dst = append(dst, '\\', c)
		case c < 0x20:
			dst = append(dst, '\\', 'u', '0', '0', refHexDigit(c>>4), refHexDigit(c&0xf))
		default:
			dst = append(dst, c)
		}
	}
	return append(dst, '"')
}

func refHexDigit(n byte) byte {
	if n < 10 {
		return '0' + n
	}
	return 'a' + n - 10
}
