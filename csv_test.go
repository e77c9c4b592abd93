package modelardb

import (
	"bytes"
	"context"
	"strings"
	"testing"
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
