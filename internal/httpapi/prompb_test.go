package httpapi

import (
	"reflect"
	"testing"
)

// sampleSeries is a small WriteRequest: two series, several labels
// and samples, negative and fractional values.
func sampleSeries() []promSeries {
	return []promSeries{
		{
			Labels: []promLabel{
				{Name: "__name__", Value: "s1"},
				{Name: "job", Value: "wind-park"},
			},
			Samples: []promSample{
				{Value: 1.5, Timestamp: 0},
				{Value: -2.25, Timestamp: 1000},
			},
		},
		{
			Labels:  []promLabel{{Name: "modelardb_tid", Value: "2"}},
			Samples: []promSample{{Value: 7, Timestamp: 2000}},
		},
	}
}

func TestWriteRequestRoundTrip(t *testing.T) {
	in := sampleSeries()
	out, err := decodeWriteRequest(encodeWriteRequest(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in %+v\nout %+v", in, out)
	}
}

// TestDecodeSkipsUnknownFields makes sure the decoder tolerates fields
// a newer remote-write sender might add (e.g. metadata, exemplars).
func TestDecodeSkipsUnknownFields(t *testing.T) {
	body := encodeWriteRequest([]promSeries{{
		Labels:  []promLabel{{Name: "__name__", Value: "s1"}},
		Samples: []promSample{{Value: 3, Timestamp: 0}},
	}})
	// Append WriteRequest field 3 (metadata, length-delimited) with an
	// arbitrary payload, then a varint field 7.
	body = appendProtoBytes(body, 3, []byte{0x08, 0x01})
	body = append(body, 7<<3|0, 42)
	out, err := decodeWriteRequest(body)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0].Samples) != 1 || out[0].Samples[0].Value != 3 {
		t.Fatalf("decoded %+v", out)
	}
}

func TestDecodeCorruptProto(t *testing.T) {
	cases := [][]byte{
		{0x0a},             // truncated length-delimited field
		{0x0a, 0x05, 0x01}, // declared length past end
		{0x07},             // wire type 7 (invalid)
		{0x80},             // truncated varint
	}
	for _, b := range cases {
		if _, err := decodeWriteRequest(b); err == nil {
			t.Errorf("decode(% x) succeeded, want error", b)
		}
	}
}
