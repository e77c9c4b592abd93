package modelardb

import (
	"bufio"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// csvBatchSize is the number of parsed points LoadCSV hands to
// AppendBatch at a time: large enough to amortize a group's shard lock
// over many points, small enough to keep the parse buffer cache-sized.
const csvBatchSize = 4096

// LoadCSV ingests data points from a CSV stream with rows of
// tid,timestamp-ms,value (a header row is skipped if present). Points
// must be ordered as Append requires: non-decreasing ticks per group.
// It returns the number of points ingested; the caller should Flush
// when the load is complete. Points are ingested in batches through
// the group-sharded AppendBatch path and cancellation is honored
// between batches; points of batches already ingested stay in the
// database, as with a failed Append.
func (db *DB) LoadCSV(ctx context.Context, r io.Reader) (int64, error) {
	cr := csv.NewReader(bufio.NewReaderSize(r, 1<<20))
	cr.ReuseRecord = true
	var n int64
	batch := make([]DataPoint, 0, csvBatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if err := db.AppendBatch(ctx, batch); err != nil {
			return err
		}
		n += int64(len(batch))
		batch = batch[:0]
		return nil
	}
	var rows int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			return n, flush()
		}
		if err != nil {
			return n, fmt.Errorf("modelardb: csv: %w", err)
		}
		if len(rec) != 3 {
			return n, fmt.Errorf("modelardb: csv row %d has %d fields, want tid,ts,value", rows+1, len(rec))
		}
		tid, err := strconv.Atoi(rec[0])
		if err != nil {
			if rows == 0 {
				continue // header row
			}
			return n, fmt.Errorf("modelardb: csv row %d: bad tid %q", rows+1, rec[0])
		}
		ts, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return n, fmt.Errorf("modelardb: csv row %d: bad timestamp %q", rows+1, rec[1])
		}
		v, err := strconv.ParseFloat(rec[2], 32)
		if err != nil {
			return n, fmt.Errorf("modelardb: csv row %d: bad value %q", rows+1, rec[2])
		}
		rows++
		batch = append(batch, DataPoint{Tid: Tid(tid), TS: ts, Value: float32(v)})
		if len(batch) == cap(batch) {
			if err := flush(); err != nil {
				return n, err
			}
		}
	}
}

// WriteCSV writes the reconstructed data points of the given series
// (all series when tids is empty) as tid,ts,value rows, ordered by the
// store's (Gid, EndTime) scan order. It is the export counterpart of
// LoadCSV. The export streams through a QueryRows cursor, so rows are
// written as the scan produces them instead of materializing the
// whole result first, and cancelling ctx stops the scan within one
// chunk of work. Rows are rendered by Rows.AppendRow and reach w in
// blocks of about TextBlockSize bytes.
func (db *DB) WriteCSV(ctx context.Context, w io.Writer, tids ...Tid) (int64, error) {
	sql := "SELECT Tid, TS, Value FROM DataPoint"
	if len(tids) > 0 {
		sql += " WHERE Tid IN ("
		for i, tid := range tids {
			if i > 0 {
				sql += ", "
			}
			sql += strconv.Itoa(int(tid))
		}
		sql += ")"
	}
	rows, err := db.QueryRows(ctx, sql)
	if err != nil {
		return 0, err
	}
	defer rows.Close()
	var n int64
	var buf []byte
	for rows.Next() {
		buf = rows.AppendRow(buf, TextCSV)
		n++
		if len(buf) >= TextBlockSize {
			if _, err := w.Write(buf); err != nil {
				return n, err
			}
			buf = buf[:0]
		}
	}
	if err := rows.Err(); err != nil {
		return n, err
	}
	_, err = w.Write(buf)
	return n, err
}
