package cluster

import (
	"context"
	"sync"

	"modelardb"
	"modelardb/internal/core"
)

// sequencer is the master-side half of the exactly-once ingestion
// contract: it assigns each group's monotonic batch sequence exactly
// once at seal time, keeps per-worker FIFO queues of sealed batches,
// and drains them in order through the worker's apply. A batch
// whose send fails stays at the head of its queue with its original
// sequences, so the eventual retry replays exactly the bytes the
// worker's dedup table can recognize.
type sequencer struct {
	mu sync.Mutex
	// nextSeq is the per-group batch sequence counter; a group's
	// sequence is assigned when its slice of a batch is sealed, and
	// never reassigned.
	nextSeq map[modelardb.Gid]uint64
	// queues holds each worker's sealed, unacknowledged batches in
	// sequence order.
	queues [][]*AppendArgs
	// sendMus serialize sends per worker (independently of mu, which is
	// never held across a send): batches must reach a worker in
	// sequence order or its dedup high-water mark would drop live data.
	sendMus []sync.Mutex
}

func newSequencer(workers int) *sequencer {
	return &sequencer{
		nextSeq: make(map[modelardb.Gid]uint64),
		queues:  make([][]*AppendArgs, workers),
		sendMus: make([]sync.Mutex, workers),
	}
}

// seed floors the sequence counters at a worker's applied table, so a
// fresh master continues above everything already ingested.
func (s *sequencer) seed(applied map[core.Gid]uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for gid, seq := range applied {
		if seq > s.nextSeq[gid] {
			s.nextSeq[gid] = seq
		}
	}
}

// seal stamps each group present in points with the group's next
// sequence and queues the sealed batch for worker w. gids holds each
// point's group, aligned with points — the caller already resolved
// them while routing, so sealing does no metadata lookups. Callers
// that seal one worker from several goroutines must order their seal
// calls themselves (the Client seals under its own mutex); seal only
// guarantees that assignment and enqueueing are atomic.
func (s *sequencer) seal(w int, points []core.DataPoint, gids []modelardb.Gid) {
	if len(points) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seqs := make(map[modelardb.Gid]uint64)
	for _, gid := range gids {
		if _, ok := seqs[gid]; !ok {
			s.nextSeq[gid]++
			seqs[gid] = s.nextSeq[gid]
		}
	}
	s.queues[w] = append(s.queues[w], &AppendArgs{Points: points, Seqs: seqs})
}

// queued counts the sealed, unacknowledged batches waiting for any
// worker. It is the master-side write-backpressure signal surfaced
// through Stats: a count growing under load means the workers accept
// batches slower than the master seals them.
func (s *sequencer) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// drain sends worker w's queued batches in order through send. On
// failure the failed batch — and everything sealed behind it — stays
// queued for the next append or flush to retry.
func (s *sequencer) drain(ctx context.Context, w int, send func(context.Context, *AppendArgs) error) error {
	s.sendMus[w].Lock()
	defer s.sendMus[w].Unlock()
	for {
		s.mu.Lock()
		if len(s.queues[w]) == 0 {
			s.mu.Unlock()
			return nil
		}
		args := s.queues[w][0]
		s.mu.Unlock()
		if err := send(ctx, args); err != nil {
			return err
		}
		s.mu.Lock()
		s.queues[w] = s.queues[w][1:]
		s.mu.Unlock()
	}
}
