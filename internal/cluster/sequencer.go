package cluster

import (
	"context"
	"sync"

	"modelardb"
	"modelardb/internal/core"
)

// maxUnacked bounds each worker's sealed, unacknowledged batches: an
// Append that seals a batch past it waits until the worker has
// acknowledged enough of them. Four keeps the master filling the next
// batch while the worker ingests the last ones; one is the old
// stop-and-wait.
const maxUnacked = 4

// sequencer is the master-side half of the exactly-once ingestion
// contract: it assigns each group's monotonic batch sequence exactly
// once at seal time and keeps per-worker FIFO queues of sealed
// batches, which each worker's sender (Client.send) delivers in order,
// one call in flight at a time. A batch whose send fails stays at the
// head of its queue with its original sequences, so the eventual retry
// replays exactly the bytes the worker's dedup table can recognize.
type sequencer struct {
	mu sync.Mutex
	// nextSeq is the per-group batch sequence counter; a group's
	// sequence is assigned when its slice of a batch is sealed, and
	// never reassigned.
	nextSeq map[modelardb.Gid]uint64
	lanes   []lane
}

// lane is one worker's queue of sealed batches, guarded by
// sequencer.mu.
type lane struct {
	// queue holds the sealed, unacknowledged batches in sequence order;
	// its head may be in flight.
	queue []*AppendArgs
	// acked counts the batches ever acknowledged: the lane's batch n
	// (1-based, in seal order) is acknowledged once acked >= n.
	acked uint64
	// err is the failure of the last send of the head. While it is set
	// the sender idles, until the next seal clears it.
	err error
	// wake tells the sender there is work; it has capacity 1, so a
	// wake-up is never lost and never blocks.
	wake chan struct{}
	// changed is closed, and replaced, whenever a send ends: it wakes
	// every caller waiting on this lane.
	changed chan struct{}
}

func newSequencer(workers int) *sequencer {
	s := &sequencer{
		nextSeq: make(map[modelardb.Gid]uint64),
		lanes:   make([]lane, workers),
	}
	for i := range s.lanes {
		s.lanes[i].wake = make(chan struct{}, 1)
		s.lanes[i].changed = make(chan struct{})
	}
	return s
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
// sequence, queues the sealed batch for worker w and wakes its sender.
// gids holds each point's group, aligned with points — the caller
// already resolved them while routing, so sealing does no metadata
// lookups. Callers that seal one worker from several goroutines must
// order their seal calls themselves (the Client seals under its own
// mutex); seal only guarantees that assignment and enqueueing are
// atomic. It returns the number of w's last sealed batch, which is
// this one unless points is empty and nothing was sealed.
//
// A seal is also the retry: if w's sender stopped on a failed send,
// seal restarts it and returns the failed batch's number as retried
// (0 when no send had failed), for the caller to wait on.
func (s *sequencer) seal(w int, points []core.DataPoint, gids []modelardb.Gid) (n, retried uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.lanes[w]
	if l.err != nil {
		l.err = nil
		l.kick()
		retried = l.acked + 1
	}
	if len(points) == 0 {
		return l.acked + uint64(len(l.queue)), retried
	}
	seqs := make(map[modelardb.Gid]uint64)
	for _, gid := range gids {
		if _, ok := seqs[gid]; !ok {
			s.nextSeq[gid]++
			seqs[gid] = s.nextSeq[gid]
		}
	}
	l.queue = append(l.queue, &AppendArgs{Points: points, Seqs: seqs})
	l.kick()
	return l.acked + uint64(len(l.queue)), retried
}

// kick wakes the lane's sender unless a wake-up is already pending.
func (l *lane) kick() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// head returns the batch worker w's sender must send next: the head of
// its queue, or nil when the queue is empty or its last send failed.
func (s *sequencer) head(w int) *AppendArgs {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.lanes[w]
	if len(l.queue) == 0 || l.err != nil {
		return nil
	}
	return l.queue[0]
}

// ack records the outcome of sending worker w's head: an acknowledged
// batch leaves the queue, a failed one stays and stops the sender.
// Either way every waiter on the lane wakes.
func (s *sequencer) ack(w int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := &s.lanes[w]
	if err != nil {
		l.err = err
	} else {
		l.queue[0] = nil
		l.queue = l.queue[1:]
		l.acked++
	}
	close(l.changed)
	l.changed = make(chan struct{})
}

// wait blocks until worker w has acknowledged batch n, and returns nil
// then. It returns the send error instead if the lane's sender stops
// on a failure first, and ctx's or done's error if either ends first.
func (s *sequencer) wait(ctx, done context.Context, w int, n uint64) error {
	for {
		s.mu.Lock()
		l := &s.lanes[w]
		acked, err, changed := l.acked, l.err, l.changed
		s.mu.Unlock()
		switch {
		case acked >= n:
			return nil
		case err != nil:
			return err
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		case <-done.Done():
			return done.Err()
		}
	}
}

// queued counts the sealed, unacknowledged batches of every worker, in
// flight ones included. It is the master-side write-backpressure
// signal surfaced through Stats: a count growing under load means the
// workers accept batches slower than the master seals them.
func (s *sequencer) queued() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.lanes {
		n += len(s.lanes[i].queue)
	}
	return n
}

// queuedPoints counts the points of every worker's sealed,
// unacknowledged batches, in flight ones included.
func (s *sequencer) queuedPoints() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for i := range s.lanes {
		for _, args := range s.lanes[i].queue {
			n += len(args.Points)
		}
	}
	return n
}
