package modelardb

import (
	"bufio"
	"cmp"
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"modelardb/internal/core"
)

// LoadCSV ingests data points from a CSV stream with rows of
// tid,timestamp-ms,value (a header row is skipped if present). Points
// must be ordered as Append requires: non-decreasing ticks per group.
// It returns the number of points ingested; the caller should Flush
// when the load is complete. Points are ingested through AppendBatch
// in core.ShipSize slices and cancellation is honored between slices;
// on an error, the points already kept stay in the database, as with
// a failed Append, and the count includes them.
func (db *DB) LoadCSV(ctx context.Context, r io.Reader) (int64, error) {
	cr := csv.NewReader(bufio.NewReaderSize(r, 1<<20))
	cr.ReuseRecord = true
	ship := core.Shipper{Sink: func(batch []DataPoint) error { return db.AppendBatch(ctx, batch) }}
	var rows int64
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			err := ship.Flush()
			return ship.Kept, err
		}
		if err != nil {
			return ship.Kept, fmt.Errorf("modelardb: csv: %w", err)
		}
		if len(rec) != 3 {
			return ship.Kept, fmt.Errorf("modelardb: csv row %d has %d fields, want tid,ts,value", rows+1, len(rec))
		}
		tid, err := strconv.Atoi(rec[0])
		if err != nil {
			if rows == 0 {
				continue // header row
			}
			return ship.Kept, fmt.Errorf("modelardb: csv row %d: bad tid %q", rows+1, rec[0])
		}
		ts, err := strconv.ParseInt(rec[1], 10, 64)
		if err != nil {
			return ship.Kept, fmt.Errorf("modelardb: csv row %d: bad timestamp %q", rows+1, rec[1])
		}
		v, err := strconv.ParseFloat(rec[2], 32)
		if err != nil {
			return ship.Kept, fmt.Errorf("modelardb: csv row %d: bad value %q", rows+1, rec[2])
		}
		rows++
		if err := ship.Add(DataPoint{Tid: Tid(tid), TS: ts, Value: float32(v)}); err != nil {
			return ship.Kept, err
		}
	}
}

// WriteCSV writes the reconstructed data points of the given series
// (all series when tids is empty) as tid,ts,value rows, ordered by the
// store's (Gid, EndTime) scan order. It is the export counterpart of
// LoadCSV. The export streams through a QueryRows cursor, so rows are
// written as the scan produces them instead of materializing the
// whole result first, and cancelling ctx stops the scan within one
// chunk of work. Rows reach w in Rows.WriteText's blocks.
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
	buf, n, err := rows.WriteText(w, nil, TextCSV)
	if err = cmp.Or(err, rows.Err()); err != nil {
		return n, err
	}
	_, err = w.Write(buf)
	return n, err
}
