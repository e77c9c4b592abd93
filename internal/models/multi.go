package models

import (
	"encoding/binary"
	"fmt"
)

// MultiType wraps a single-series model type so each series in a group
// is fitted by its own sub-model while all sub-models share one
// segment's metadata — the baseline "multiple models per segment"
// method of §5.1. It reduces metadata duplication but, unlike the
// single-model extensions of §5.2, does not share value parameters, so
// it is kept for the ablation experiments that quantify that gap.
type MultiType struct {
	Inner ModelType
	ID    MID
}

// NewMulti wraps inner under the given MID. MIDs from MidMultiBase are
// conventionally used.
func NewMulti(inner ModelType, mid MID) MultiType {
	return MultiType{Inner: inner, ID: mid}
}

// MID implements ModelType.
func (t MultiType) MID() MID { return t.ID }

// Name implements ModelType.
func (t MultiType) Name() string { return "Multi" + t.Inner.Name() }

// New implements ModelType.
func (t MultiType) New(bound ErrorBound, nseries int) Model {
	subs := make([]Model, nseries)
	for i := range subs {
		subs[i] = t.Inner.New(bound, 1)
	}
	return &multiModel{subs: subs}
}

// View implements ModelType. Parameters are a sequence of
// uvarint-length-prefixed sub-parameters, one per series.
func (t MultiType) View(params []byte, nseries, length int) (AggView, error) {
	views := make([]AggView, nseries)
	rest := params
	for i := 0; i < nseries; i++ {
		n, sz := binary.Uvarint(rest)
		if sz <= 0 || uint64(len(rest)-sz) < n {
			return nil, fmt.Errorf("models: multi view: truncated sub-parameters for series %d", i)
		}
		sub, err := t.Inner.View(rest[sz:sz+int(n)], 1, length)
		if err != nil {
			return nil, fmt.Errorf("models: multi view series %d: %w", i, err)
		}
		views[i] = sub
		rest = rest[sz+int(n):]
	}
	return multiView{views: views, length: length}, nil
}

// multiModel accepts an interval only when every sub-model accepts its
// series' value, so all sub-models always represent the same time
// interval (§5.1, Fig. 9: on a partial fit the segment's end time is
// simply not advanced, which is equivalent to rejecting the interval).
type multiModel struct {
	subs   []Model
	length int
	one    [1]float32 // scratch for a sub-model's one-value tick
}

func (m *multiModel) Append(values []float32) bool {
	if len(values) != len(m.subs) {
		return false
	}
	for i, sub := range m.subs {
		m.one[0] = values[i]
		if !sub.Append(m.one[:]) {
			// Sub-models that already accepted this interval now have a
			// longer length; Bytes(length) serializes the common prefix,
			// discarding the leftover parameters (§5.1).
			return false
		}
	}
	m.length++
	return true
}

func (m *multiModel) Length() int { return m.length }

func (m *multiModel) Bytes(length int) ([]byte, error) {
	if length < 1 || length > m.length {
		return nil, fmt.Errorf("models: Multi Bytes(%d) outside [1, %d]", length, m.length)
	}
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	for i, sub := range m.subs {
		b, err := sub.Bytes(length)
		if err != nil {
			return nil, fmt.Errorf("models: multi series %d: %w", i, err)
		}
		n := binary.PutUvarint(tmp[:], uint64(len(b)))
		out = append(out, tmp[:n]...)
		out = append(out, b...)
	}
	return out, nil
}

// multiView dispatches every series to its sub-view.
type multiView struct {
	views  []AggView
	length int
}

func (v multiView) Length() int    { return v.length }
func (v multiView) NumSeries() int { return len(v.views) }

func (v multiView) ValueAt(series, i int) float32 {
	return v.views[series].ValueAt(0, i)
}

func (v multiView) SumRange(series, i0, i1 int) float64 {
	return v.views[series].SumRange(0, i0, i1)
}

func (v multiView) MinRange(series, i0, i1 int) float64 {
	return v.views[series].MinRange(0, i0, i1)
}

func (v multiView) MaxRange(series, i0, i1 int) float64 {
	return v.views[series].MaxRange(0, i0, i1)
}
