package cluster

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"modelardb"
)

// TestLocalMasterColdEqualsWarm: a master over two in-process workers
// answers each aggregate as a fresh master does, whose workers decode
// every Gorilla segment, after the queries before it and again after
// itself, when whole-segment folds read the memos earlier folds left
// beside the workers' indexes.
func TestLocalMasterColdEqualsWarm(t *testing.T) {
	ctx := context.Background()
	// Noise at bound 0 is stored by Gorilla, the model that decodes.
	rng := rand.New(rand.NewSource(7))
	var batch []modelardb.DataPoint
	for tick := range 1500 {
		for tid := modelardb.Tid(1); tid <= 8; tid++ {
			v := float32(tid)*100 + float32(rng.NormFloat64())
			batch = append(batch, modelardb.DataPoint{Tid: tid, TS: int64(tick) * 1000, Value: v})
		}
	}
	loaded := func() *Client {
		c, err := NewLocal(ctx, fleetConfig(), 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.AppendBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
		if err := c.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		return c
	}
	answer := func(c *Client, sql string) string {
		res, err := c.Query(ctx, sql)
		if err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
		if len(res.Rows) == 0 {
			t.Fatalf("%q: no rows", sql)
		}
		return fmt.Sprintf("%#v", res.Rows)
	}
	warm := loaded()
	for _, sql := range []string{
		"SELECT Tid, COUNT(*), SUM(Value), MIN(Value), MAX(Value) FROM DataPoint GROUP BY Tid ORDER BY Tid",
		"SELECT Park, CUBE_SUM_HOUR(*) FROM Segment GROUP BY Park ORDER BY Park",
		"SELECT Park, SUM_S(*), AVG_S(*), MAX_S(*) FROM Segment WHERE TS BETWEEN 5500 AND 900000 GROUP BY Park ORDER BY Park",
	} {
		cold := answer(loaded(), sql)
		if after, again := answer(warm, sql), answer(warm, sql); after != cold || again != cold {
			t.Fatalf("%q:\ncold  %s\nafter %s\nagain %s", sql, cold, after, again)
		}
	}
}
