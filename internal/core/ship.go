package core

import "errors"

// ShipSize is the most points a front door hands to AppendBatch at a
// time: enough to amortize a group's shard lock over many points, few
// enough that a huge request streams through bounded memory.
const ShipSize = 8192

// BatchError is the error of an AppendBatch that failed after keeping
// some of its points: Ingested of them are in the database. Its text
// is Err's, and errors.Is and errors.As see through it to Err.
type BatchError struct {
	Ingested int
	Err      error
}

func (e *BatchError) Error() string { return e.Err.Error() }

func (e *BatchError) Unwrap() error { return e.Err }

// Shipper is the one loop the ingest front doors ship through: it
// buffers points and hands them to Sink at most ShipSize at a time. A
// front door that fails part-way returns without Flush, so the points
// not yet shipped are dropped.
type Shipper struct {
	// Sink ingests one slice, as AppendBatch does. It must not retain
	// the slice: the buffer is reused for the next one.
	Sink func([]DataPoint) error
	// Kept counts the points Sink kept: every point of each slice it
	// accepted, and a failed slice's BatchError.Ingested.
	Kept  int64
	batch []DataPoint
}

// Add buffers p and ships the buffer once it holds ShipSize points.
func (s *Shipper) Add(p DataPoint) error {
	s.batch = append(s.batch, p)
	if len(s.batch) < ShipSize {
		return nil
	}
	return s.Flush()
}

// Flush ships the buffered points.
func (s *Shipper) Flush() error {
	if len(s.batch) == 0 {
		return nil
	}
	err := s.Sink(s.batch)
	if err == nil {
		s.Kept += int64(len(s.batch))
	} else if be := (*BatchError)(nil); errors.As(err, &be) {
		s.Kept += int64(be.Ingested)
	}
	s.batch = s.batch[:0]
	return err
}

// Reset empties s for reuse, keeping its buffer.
func (s *Shipper) Reset() { *s = Shipper{batch: s.batch[:0]} }
