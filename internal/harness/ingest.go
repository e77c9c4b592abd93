package harness

import (
	"context"
	"fmt"
	"time"

	"modelardb"
	"modelardb/internal/cluster"
	"modelardb/internal/core"
)

// Fig13 reproduces Figure 13: the ingestion rate of every system on
// the EP subset, single node (B-1), plus ModelarDBv2 on a simulated
// six-worker cluster bulk loading (B-6) and with online aggregate
// queries during ingestion (O-6). The paper reports v2 fastest on one
// node (5.5x InfluxDB, 11x Cassandra, ~2.6-2.9x Parquet/ORC, 2.1x v1)
// and 4.48x / 4.11x speedups on six workers.
func Fig13(scale Scale) (*Table, error) {
	d := scale.epDataset()
	t := &Table{
		ID:     "fig13",
		Title:  "Ingestion rate, EP subset",
		Header: []string{"Scenario", "System", "Rate", "Points", "Time"},
	}
	systems, err := comparators(d)
	if err != nil {
		return nil, err
	}
	for _, s := range systems {
		dur, points, err := ingestInto(s, d)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"B-1", s.Name(), fmtRate(points, dur), fmt.Sprint(points), fmtDur(dur)})
		s.Close()
	}
	v1, v2, err := mdbSystems(d, modelardb.RelBound(5), epClauses())
	if err != nil {
		return nil, err
	}
	for _, s := range []interface {
		Name() string
		Append(core.DataPoint) error
		Flush() error
		Close() error
	}{v1, v2} {
		start := time.Now()
		var points int64
		err := d.Points(func(p core.DataPoint) error {
			points++
			return s.Append(p)
		})
		if err != nil {
			return nil, err
		}
		if err := s.Flush(); err != nil {
			return nil, err
		}
		dur := time.Since(start)
		t.Rows = append(t.Rows, []string{"B-1", s.Name(), fmtRate(points, dur), fmt.Sprint(points), fmtDur(dur)})
		s.Close()
	}
	// B-6 and O-6: six in-process workers.
	for _, online := range []bool{false, true} {
		scenario := "B-6"
		if online {
			scenario = "O-6"
		}
		ctx := context.Background()
		c, err := cluster.NewLocal(ctx, mdbConfig(d, modelardb.RelBound(5), epClauses()), 6)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		var points int64
		queryEvery := int64(50000)
		err = d.Points(func(p core.DataPoint) error {
			points++
			if online && points%queryEvery == 0 {
				// Online analytics: aggregate a random-ish series during
				// ingestion, as the paper's O scenario does.
				tid := core.Tid(points/queryEvery%int64(len(d.Series))) + 1
				if _, err := c.Query(ctx, fmt.Sprintf("SELECT SUM_S(*) FROM Segment WHERE Tid = %d", tid)); err != nil {
					return err
				}
			}
			return c.Append(ctx, p.Tid, p.TS, p.Value)
		})
		if err != nil {
			return nil, err
		}
		if err := c.Flush(ctx); err != nil {
			return nil, err
		}
		dur := time.Since(start)
		t.Rows = append(t.Rows, []string{scenario, "ModelarDBv2", fmtRate(points, dur), fmt.Sprint(points), fmtDur(dur)})
		c.Close()
	}
	t.Notes = append(t.Notes,
		"paper: v2 fastest single node; InfluxDB/Cassandra slowest; B-6 ~4.5x B-1",
		"in-process workers share one machine, so B-6 shows per-worker pipelining, not a 6-machine speedup")
	return t, nil
}
