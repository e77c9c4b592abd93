package obs

import (
	"log"
	"strconv"
	"strings"
	"time"
)

// SlowQueryLog logs one line per query whose total duration reaches a
// threshold, carrying the trace's stage timings and every work count,
// in the counts table's order, so a slow query is diagnosable from the
// log alone:
//
//	slow query id=7 total=1.2s parse=40µs plan=110µs scan=1.19s
//	  finalize=9ms segments=52310 chunks=64 rows=12 folded_series=0
//	  decoded_points=8127400 select_runs=0 sql="SELECT ..."
//
// (on one line). A threshold of zero or less logs every query — useful
// for tracing a test run, never the production default.
type SlowQueryLog struct {
	threshold time.Duration
	logger    *log.Logger
	logged    Counter
}

// NewSlowQueryLog returns a log writing through logger (nil selects
// the standard logger) for queries with total >= threshold.
func NewSlowQueryLog(threshold time.Duration, logger *log.Logger) *SlowQueryLog {
	if logger == nil {
		logger = log.Default()
	}
	return &SlowQueryLog{threshold: threshold, logger: logger}
}

// Logged returns how many queries have been logged.
func (l *SlowQueryLog) Logged() int64 { return l.logged.Value() }

// MaybeLog logs the trace if it crossed the threshold, reporting
// whether it did. A query exactly at the threshold logs — "slower than
// the configured threshold" is inclusive, so a 100ms threshold catches
// every query that took at least 100ms. Safe on a nil log or trace.
func (l *SlowQueryLog) MaybeLog(t *Trace, err error) bool {
	if l == nil || t == nil || t.Total() < l.threshold {
		return false
	}
	l.logged.Inc()
	var b strings.Builder
	b.WriteString("slow query id=")
	b.WriteString(strconv.FormatUint(t.ID(), 10))
	b.WriteString(" total=")
	b.WriteString(t.Total().String())
	for _, sp := range t.Spans() {
		b.WriteByte(' ')
		b.WriteString(sp.Name)
		b.WriteByte('=')
		b.WriteString(sp.Duration.String())
	}
	for c, d := range counts {
		b.WriteByte(' ')
		b.WriteString(d.key)
		b.WriteByte('=')
		b.WriteString(strconv.FormatInt(t.Count(Count(c)), 10))
	}
	if err != nil {
		b.WriteString(" err=")
		b.WriteString(strconv.Quote(err.Error()))
	}
	b.WriteString(" sql=")
	b.WriteString(strconv.Quote(t.SQL()))
	l.logger.Print(b.String())
	return true
}
