// Package models implements the model types used by Multi-Model Group
// Compression (MMGC): the constant PMC-Mean model, the linear Swing model
// and the Gorilla XOR model, each extended to represent a group of
// correlated time series with a single stream of parameters (paper §5.2).
// Gorilla is the fallback that never rejects a value: lossless at bound
// 0, and at a non-zero bound storing values quantized within it.
//
// A model is fitted to the values of all series in a group, one sampling
// interval at a time, and is valid only while every value can be
// reconstructed within a user-defined error bound (Definition 4). Models
// are black boxes behind the Model/ModelType interfaces, so user-defined
// models can be registered without changing the ingestion pipeline.
package models

import (
	"errors"
	"fmt"
	"math"
)

// MID identifies a model type, mirroring the Mid column of the Model
// table in the storage schema (paper Fig. 6).
type MID uint8

// Built-in model identifiers. User-defined models must use other values.
const (
	MidPMC     MID = 1 // constant model (PMC-Mean)
	MidSwing   MID = 2 // linear model (Swing)
	MidGorilla MID = 3 // XOR-compressed values, lossless only at bound 0 (Gorilla)

	// MidMultiBase is the first MID used for the "multiple models per
	// segment" wrappers of §5.1, kept for the ablation experiments.
	MidMultiBase MID = 32

	// MidUserBase is the first MID recommended for user-defined models.
	MidUserBase MID = 64
)

// ErrorBound is a user-defined bound on the error of reconstructed
// values. A relative bound is a percentage of each value's magnitude,
// as in the paper's evaluation (0%, 1%, 5%, 10%); an absolute bound is
// in value units. A bound of zero means lossless.
type ErrorBound struct {
	// Value is the bound: percent when Relative, value units otherwise.
	Value float64
	// Relative selects a percentage bound.
	Relative bool
}

// RelBound returns a relative (percentage) error bound.
func RelBound(percent float64) ErrorBound {
	return ErrorBound{Value: percent, Relative: true}
}

// AbsBound returns an absolute error bound in value units.
func AbsBound(units float64) ErrorBound {
	return ErrorBound{Value: units}
}

// IsLossless reports whether the bound requires exact reconstruction.
func (b ErrorBound) IsLossless() bool { return b.Value == 0 }

// Interval returns the inclusive interval of approximations permitted
// for the real value v.
func (b ErrorBound) Interval(v float64) (lo, hi float64) {
	d := b.slack(v)
	return v - d, v + d
}

// slack is how far from the real value v an approximation may lie.
func (b ErrorBound) slack(v float64) float64 {
	if b.Relative {
		return math.Abs(v) * b.Value / 100
	}
	return b.Value
}

// Within reports whether approx is a permitted approximation of real.
func (b ErrorBound) Within(approx, real float64) bool {
	lo, hi := b.Interval(real)
	return approx >= lo && approx <= hi
}

func (b ErrorBound) String() string {
	if b.Relative {
		return fmt.Sprintf("%g%%", b.Value)
	}
	return fmt.Sprintf("abs(%g)", b.Value)
}

// Model is a model instance being fitted to the data points of a time
// series group during ingestion. Implementations must be deterministic:
// the parameters returned by Bytes must reconstruct, via the matching
// ModelType.View, every appended value within the error bound.
//
// The segment generator scores every finished model on its fitted
// length and verifies only the best one, the leader. This picks what
// verifying every model would pick as long as a prefix never scores
// better than the whole: the compression ratio of Bytes(n), for
// n < Length(), must not exceed that of Bytes(Length()). Models with
// fixed-size parameters, such as PMC and Swing, keep this contract, and
// so does a model whose parameters always verify whole, such as
// Gorilla. A model that breaks it can change which segment is emitted,
// but every emitted segment is still verified.
type Model interface {
	// Append tries to extend the model with the group's values for the
	// next sampling interval, ordered by series position. It returns
	// false when the model cannot represent the new values within the
	// error bound; after that the caller must not call Append again and
	// may only use Length and Bytes (the ingestion pipeline finalizes a
	// model on its first rejection, §3.2 step iii). values is only valid
	// during the call: the generator reuses its buffer, so a model must
	// copy what it keeps.
	Append(values []float32) bool

	// Length returns the number of sampling intervals represented.
	Length() int

	// Bytes serializes the parameters representing the first length
	// sampling intervals, 1 <= length <= Length().
	Bytes(length int) ([]byte, error)
}

// AggView provides reconstruction and constant-or-linear-time aggregate
// access to a model's parameters (paper §6: aggregate queries are
// executed on models instead of data points). Index i addresses the
// i-th sampling interval of the segment, series the series position
// within the group. Ranges are inclusive.
type AggView interface {
	// Length is the number of sampling intervals represented.
	Length() int
	// NumSeries is the number of series positions.
	NumSeries() int
	// ValueAt reconstructs the value of one series at one interval.
	ValueAt(series, i int) float32
	// SumRange returns the sum of a series' values over [i0, i1].
	SumRange(series, i0, i1 int) float64
	// MinRange returns the minimum of a series' values over [i0, i1].
	MinRange(series, i0, i1 int) float64
	// MaxRange returns the maximum of a series' values over [i0, i1].
	MaxRange(series, i0, i1 int) float64
}

// ValueDecoder is the optional AggView method of a view that decodes
// its parameters into values: DecodedValues is how many values its last
// decode produced. A view without it answers in closed form and decodes
// none. The query engine counts the values (view_values) and keeps the
// whole-range folds of a view that decoded some beside the segment
// (core.Memo), so a later fold of the segment decodes nothing.
type ValueDecoder interface {
	DecodedValues() int
}

// ModelType describes a kind of model: a factory for fitting instances
// and a decoder for stored parameters. This is the extension API used
// to add user-defined models (paper §3.1).
type ModelType interface {
	MID() MID
	Name() string
	// New returns a model instance for a group of nseries series.
	New(bound ErrorBound, nseries int) Model
	// View decodes parameters produced by a Model of this type.
	View(params []byte, nseries, length int) (AggView, error)
}

// ErrUnknownModel is returned when a MID has no registered ModelType.
var ErrUnknownModel = errors.New("models: unknown model type")

// Registry maps MIDs to model types. A Registry corresponds to the
// Model table of the storage schema: the set of models available to
// one database instance.
type Registry struct {
	// byMID is indexed by MID, nil where none is registered: the scan
	// looks a type up per segment, and an index is cheaper than a hash.
	byMID  [256]ModelType
	byName map[string]ModelType
	order  []MID
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]ModelType)}
}

// NewBuiltinRegistry returns a registry with the three models shipped
// with ModelarDB Core, in the order they are tried during ingestion:
// PMC-Mean, Swing, Gorilla.
func NewBuiltinRegistry() *Registry {
	r := NewRegistry()
	must := func(err error) {
		if err != nil {
			panic(err)
		}
	}
	must(r.Register(PMCType{}))
	must(r.Register(SwingType{}))
	must(r.Register(GorillaType{}))
	return r
}

// Register adds a model type. Ingestion tries model types in
// registration order (paper §3.2 step ii).
func (r *Registry) Register(mt ModelType) error {
	if mt.MID() == 0 {
		return errors.New("models: MID 0 is reserved")
	}
	if r.byMID[mt.MID()] != nil {
		return fmt.Errorf("models: MID %d already registered", mt.MID())
	}
	if _, dup := r.byName[mt.Name()]; dup {
		return fmt.Errorf("models: name %q already registered", mt.Name())
	}
	r.byMID[mt.MID()] = mt
	r.byName[mt.Name()] = mt
	r.order = append(r.order, mt.MID())
	return nil
}

// Get returns the model type registered for mid.
func (r *Registry) Get(mid MID) (ModelType, bool) {
	mt := r.byMID[mid]
	return mt, mt != nil
}

// ByName returns the model type registered under name.
func (r *Registry) ByName(name string) (ModelType, bool) {
	mt, ok := r.byName[name]
	return mt, ok
}

// Types returns the registered model types in registration order.
func (r *Registry) Types() []ModelType {
	out := make([]ModelType, 0, len(r.order))
	for _, mid := range r.order {
		out = append(out, r.byMID[mid])
	}
	return out
}

// View decodes params with the model type registered for mid.
func (r *Registry) View(mid MID, params []byte, nseries, length int) (AggView, error) {
	mt := r.byMID[mid]
	if mt == nil {
		return nil, fmt.Errorf("%w: MID %d", ErrUnknownModel, mid)
	}
	return mt.View(params, nseries, length)
}

// ViewReuser is the optional ModelType capability behind the scan
// executor's allocation-free view path: decoding new parameters into a
// view the same type produced earlier, instead of allocating a fresh
// one per segment. prev must not be shared (in particular, never a
// cached view) — ViewInto may mutate it in place and return it.
type ViewReuser interface {
	ViewInto(prev AggView, params []byte, nseries, length int) (AggView, error)
}

// ViewInto decodes params like View, reusing prev when the registered
// model type supports it and prev came from the same type. Pass the
// returned view back as prev for the next segment of the same MID.
func (r *Registry) ViewInto(prev AggView, mid MID, params []byte, nseries, length int) (AggView, error) {
	mt := r.byMID[mid]
	if mt == nil {
		return nil, fmt.Errorf("%w: MID %d", ErrUnknownModel, mid)
	}
	if vr, ok := mt.(ViewReuser); ok && prev != nil {
		return vr.ViewInto(prev, params, nseries, length)
	}
	return mt.View(params, nseries, length)
}

// minMax returns the smallest and largest of values.
func minMax(values []float32) (mn, mx float64) {
	mn, mx = float64(values[0]), float64(values[0])
	for _, v := range values[1:] {
		fv := float64(v)
		if fv < mn {
			mn = fv
		}
		if fv > mx {
			mx = fv
		}
	}
	return mn, mx
}

// corridor intersects the permitted approximation intervals of all
// values under bound b: an approximation a satisfies every value iff
// lo <= a <= hi. ok is false when the intersection is empty, which by
// the double-error-bound argument of §4.2 happens exactly when two
// values are more than 2ε apart.
func corridor(values []float32, b ErrorBound) (lo, hi float64, ok bool) {
	lo, hi = math.Inf(-1), math.Inf(1)
	for _, v := range values {
		l, h := b.Interval(float64(v))
		if l > lo {
			lo = l
		}
		if h < hi {
			hi = h
		}
	}
	return lo, hi, lo <= hi
}
