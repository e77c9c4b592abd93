package modelardb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"modelardb/internal/core"
)

func csvConfig() Config {
	return Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{{Name: "Location", Levels: []string{"Park"}}},
		Series: []SeriesConfig{
			{SI: 1000, Members: map[string][]string{"Location": {"A"}}},
			{SI: 1000, Members: map[string][]string{"Location": {"A"}}},
		},
	}
}

func TestLoadCSVRoundTrip(t *testing.T) {
	db, err := Open(csvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	in := "tid,ts,value\n1,0,10\n2,0,20\n1,1000,11\n2,1000,21\n1,2000,12\n2,2000,22\n"
	n, err := db.LoadCSV(context.Background(), strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 6 {
		t.Fatalf("loaded %d points, want 6", n)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	wn, err := db.WriteCSV(context.Background(), &out, 1)
	if err != nil {
		t.Fatal(err)
	}
	if wn != 3 {
		t.Fatalf("wrote %d rows, want 3", wn)
	}
	want := "1,0,10\n1,1000,11\n1,2000,12\n"
	if out.String() != want {
		t.Fatalf("export = %q, want %q", out.String(), want)
	}
}

func TestWriteCSVAllSeries(t *testing.T) {
	db, err := Open(csvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.LoadCSV(context.Background(), strings.NewReader("1,0,5\n2,0,6\n")); err != nil {
		t.Fatal(err)
	}
	db.Flush()
	var out bytes.Buffer
	n, err := db.WriteCSV(context.Background(), &out)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestLoadCSVErrors(t *testing.T) {
	db, err := Open(csvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cases := []string{
		"1,2\n",            // wrong arity
		"1,notats,3\n",     // bad timestamp
		"1,0,notavalue\n",  // bad value
		"1,0,1\nbad,5,1\n", // bad tid after data
		"99,0,1\n",         // unknown tid
	}
	for _, in := range cases {
		if _, err := db.LoadCSV(context.Background(), strings.NewReader(in)); err == nil {
			t.Errorf("LoadCSV(%q) unexpectedly succeeded", in)
		}
	}
}

// TestLoadCSVCountsKeptPoints: a load whose slice is rejected part-way
// (series 1's last point is out of order) returns the points the
// database kept, those of the failed slice included.
func TestLoadCSVCountsKeptPoints(t *testing.T) {
	db, err := Open(csvConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	n, err := db.LoadCSV(context.Background(), strings.NewReader("1,0,1\n2,0,2\n1,1000,3\n2,1000,4\n1,0,9\n"))
	if !errors.Is(err, core.ErrOutOfOrder) {
		t.Fatalf("LoadCSV error %v, want ErrOutOfOrder", err)
	}
	if gained := int64(db.Snapshot()["modelardb_ingested_points_total"]); n != 4 || gained != 4 {
		t.Fatalf("LoadCSV returned %d points, the database gained %d; want 4 and 4", n, gained)
	}
}

func TestAutoCorrelationClause(t *testing.T) {
	cfg := Config{
		ErrorBound: RelBound(0),
		Dimensions: []Dimension{
			{Name: "Location", Levels: []string{"Park", "Turbine"}},
		},
		Correlations: []string{"auto"},
		Series: []SeriesConfig{
			{SI: 1000, Members: map[string][]string{"Location": {"A", "T1"}}},
			{SI: 1000, Members: map[string][]string{"Location": {"A", "T2"}}},
			{SI: 1000, Members: map[string][]string{"Location": {"B", "T9"}}},
		},
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// auto = lowest distance (1/2)/1 = 0.5 for one 2-level dimension:
	// same-park series group, the cross-park series does not.
	g1, _ := db.GroupOf(1)
	g2, _ := db.GroupOf(2)
	g3, _ := db.GroupOf(3)
	if g1 != g2 || g3 == g1 {
		t.Fatalf("groups = %d %d %d, want 1 and 2 together, 3 apart", g1, g2, g3)
	}
}

// BenchmarkLoadCSV loads csvConfig's two series through LoadCSV, 10 000
// ticks per op into one in-memory database, each op's CSV rendered
// with the timer stopped. Its allocs/op is what the CSV front door
// costs beside the ingestion it feeds.
func BenchmarkLoadCSV(b *testing.B) {
	const ticks = 10000
	db, err := Open(csvConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	var in []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		in = in[:0]
		for t := i * ticks; t < (i+1)*ticks; t++ {
			for tid := 1; tid <= 2; tid++ {
				in = fmt.Appendf(in, "%d,%d,%d\n", tid, t*1000, t%50+tid)
			}
		}
		b.StartTimer()
		if n, err := db.LoadCSV(ctx, bytes.NewReader(in)); err != nil || n != 2*ticks {
			b.Fatalf("LoadCSV loaded %d points: %v", n, err)
		}
	}
}
