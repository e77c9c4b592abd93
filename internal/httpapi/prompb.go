package httpapi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"modelardb/internal/wire"
)

// A minimal protobuf codec for the Prometheus remote-write payload —
// the three messages below and nothing else, hand-rolled because the
// module takes no dependencies. Unknown fields are skipped (senders
// may attach exemplars, metadata or histograms), so the decoder stays
// forward-compatible with richer WriteRequests.
//
//	message WriteRequest { repeated TimeSeries timeseries = 1; }
//	message TimeSeries   { repeated Label labels = 1; repeated Sample samples = 2; }
//	message Label        { string name = 1; string value = 2; }
//	message Sample       { double value = 1; int64 timestamp = 2; }

// promLabel is one label pair of a remote-write series.
type promLabel struct {
	Name, Value string
}

// promSample is one (timestamp, value) observation; the timestamp is
// in milliseconds since the epoch, like modelardb's own TS axis.
type promSample struct {
	Value     float64
	Timestamp int64
}

// promSeries is one TimeSeries message of a WriteRequest.
type promSeries struct {
	Labels  []promLabel
	Samples []promSample
}

var errProtoCorrupt = errors.New("httpapi: corrupt protobuf payload")

// decodeWriteRequest parses an (already snappy-decoded) WriteRequest.
func decodeWriteRequest(b []byte) ([]promSeries, error) {
	var out []promSeries
	err := protoFields(b, func(field, wireType int, data []byte, _ uint64) error {
		if field != 1 || wireType != 2 {
			return nil
		}
		ts, err := decodeTimeSeries(data)
		if err != nil {
			return err
		}
		out = append(out, ts)
		return nil
	})
	return out, err
}

func decodeTimeSeries(b []byte) (promSeries, error) {
	var ts promSeries
	err := protoFields(b, func(field, wireType int, data []byte, _ uint64) error {
		switch {
		case field == 1 && wireType == 2:
			var l promLabel
			if err := protoFields(data, func(f int, w int, d []byte, v uint64) error {
				switch {
				case f == 1 && w == 2:
					l.Name = string(d)
				case f == 2 && w == 2:
					l.Value = string(d)
				}
				return nil
			}); err != nil {
				return err
			}
			ts.Labels = append(ts.Labels, l)
		case field == 2 && wireType == 2:
			var s promSample
			if err := protoFields(data, func(f int, w int, d []byte, v uint64) error {
				switch {
				case f == 1 && w == 1:
					s.Value = math.Float64frombits(v)
				case f == 2 && w == 0:
					s.Timestamp = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			ts.Samples = append(ts.Samples, s)
		}
		return nil
	})
	return ts, err
}

// protoFields walks b's fields, invoking fn once per field with the
// wire type, the payload bytes (length-delimited fields) and the
// scalar value (varint and fixed fields). Unknown fields parse and
// pass through; fn ignores what it does not handle.
func protoFields(b []byte, fn func(field, wireType int, data []byte, scalar uint64) error) error {
	r := wire.NewReader(b)
	for r.Len() > 0 {
		key := r.Uvarint()
		field, wireType := int(key>>3), int(key&0x7)
		var (
			data   []byte
			scalar uint64
		)
		switch wireType {
		case 0: // varint
			scalar = r.Uvarint()
		case 1: // fixed64
			scalar = r.U64()
		case 2: // length-delimited
			data = r.Bytes()
		case 5: // fixed32
			scalar = uint64(r.U32())
		default:
			return fmt.Errorf("httpapi: unsupported protobuf wire type %d", wireType)
		}
		if r.Err() != nil {
			return errProtoCorrupt
		}
		if err := fn(field, wireType, data, scalar); err != nil {
			return err
		}
	}
	return nil
}

// encodeWriteRequest renders series as a WriteRequest message —
// the test suite's and Go clients' counterpart to decodeWriteRequest.
func encodeWriteRequest(series []promSeries) []byte {
	var out []byte
	for _, ts := range series {
		var tsb []byte
		for _, l := range ts.Labels {
			var lb []byte
			lb = appendProtoBytes(lb, 1, []byte(l.Name))
			lb = appendProtoBytes(lb, 2, []byte(l.Value))
			tsb = appendProtoBytes(tsb, 1, lb)
		}
		for _, s := range ts.Samples {
			sb := []byte{1<<3 | 1} // field 1, fixed64
			sb = binary.LittleEndian.AppendUint64(sb, math.Float64bits(s.Value))
			sb = append(sb, 2<<3|0) // field 2, varint
			sb = binary.AppendUvarint(sb, uint64(s.Timestamp))
			tsb = appendProtoBytes(tsb, 2, sb)
		}
		out = appendProtoBytes(out, 1, tsb)
	}
	return out
}

// appendProtoBytes appends one length-delimited field.
func appendProtoBytes(dst []byte, field int, data []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(field)<<3|2)
	dst = binary.AppendUvarint(dst, uint64(len(data)))
	return append(dst, data...)
}
