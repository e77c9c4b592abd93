package core

import (
	"testing"
)

func newTestCache(t *testing.T) *MetadataCache {
	t.Helper()
	c := NewMetadataCache()
	series := []*TimeSeries{
		{Tid: 1, SI: 100, Members: map[string][]string{
			"Location": {"Denmark", "Nordjylland", "Aalborg", "9572"},
		}},
		{Tid: 2, SI: 100, Members: map[string][]string{
			"Location": {"Denmark", "Nordjylland", "Aalborg", "9632"},
		}},
		{Tid: 3, SI: 100, Members: map[string][]string{
			"Location": {"Denmark", "Nordjylland", "Farsø", "9634"},
		}},
	}
	for _, ts := range series {
		if err := c.Add(ts); err != nil {
			t.Fatal(err)
		}
	}
	for tid, gid := range map[Tid]Gid{1: 1, 2: 1, 3: 2} {
		if err := c.SetGroup(tid, gid); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func TestMetadataAddRejectsNonDenseTid(t *testing.T) {
	c := NewMetadataCache()
	if err := c.Add(&TimeSeries{Tid: 2, SI: 1}); err == nil {
		t.Fatal("non-dense Tid must be rejected")
	}
}

func TestMetadataAddRejectsBadSI(t *testing.T) {
	c := NewMetadataCache()
	if err := c.Add(&TimeSeries{Tid: 1, SI: 0}); err == nil {
		t.Fatal("zero SI must be rejected")
	}
}

func TestMetadataDefaultScaling(t *testing.T) {
	c := NewMetadataCache()
	if err := c.Add(&TimeSeries{Tid: 1, SI: 1}); err != nil {
		t.Fatal(err)
	}
	ts, _ := c.Series(1)
	if ts.Scaling != 1 {
		t.Fatalf("Scaling = %g, want default 1", ts.Scaling)
	}
}

func TestMetadataGroups(t *testing.T) {
	c := newTestCache(t)
	if gid, _ := c.GidOf(2); gid != 1 {
		t.Fatalf("GidOf(2) = %d, want 1", gid)
	}
	tids := c.TidsOf(1)
	if len(tids) != 2 || tids[0] != 1 || tids[1] != 2 {
		t.Fatalf("TidsOf(1) = %v, want [1 2]", tids)
	}
	series := c.SeriesOf(1)
	if len(series) != 2 || series[0].Tid != 1 || series[1].Tid != 2 {
		t.Fatalf("SeriesOf(1) = %v, want the metadata of Tids 1 and 2", series)
	}
	if len(c.SeriesOf(99)) != 0 {
		t.Fatal("SeriesOf of an unknown group must be empty")
	}
	groups := c.Groups()
	if len(groups) != 2 || groups[0] != 1 || groups[1] != 2 {
		t.Fatalf("Groups = %v, want [1 2]", groups)
	}
}

func TestMetadataSetGroupTwiceFails(t *testing.T) {
	c := newTestCache(t)
	if err := c.SetGroup(1, 5); err == nil {
		t.Fatal("second SetGroup must fail")
	}
}

func TestMetadataGidsForTids(t *testing.T) {
	c := newTestCache(t)
	gids, err := c.GidsForTids([]Tid{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(gids) != 2 || gids[0] != 1 || gids[1] != 2 {
		t.Fatalf("GidsForTids = %v, want [1 2]", gids)
	}
	if _, err := c.GidsForTids([]Tid{99}); err == nil {
		t.Fatal("unknown Tid must fail")
	}
}

func TestMetadataGidsForMember(t *testing.T) {
	c := newTestCache(t)
	// All three series share Denmark at level 1.
	gids := c.GidsForMember("Location", 1, "Denmark")
	if len(gids) != 2 {
		t.Fatalf("GidsForMember(Denmark) = %v, want both groups", gids)
	}
	// Aalborg at level 3 only appears in group 1.
	gids = c.GidsForMember("Location", 3, "Aalborg")
	if len(gids) != 1 || gids[0] != 1 {
		t.Fatalf("GidsForMember(Aalborg) = %v, want [1]", gids)
	}
	if got := c.GidsForMember("Location", 3, "Nowhere"); len(got) != 0 {
		t.Fatalf("unknown member = %v, want empty", got)
	}
}

func TestMetadataTidsForMember(t *testing.T) {
	c := newTestCache(t)
	tids := c.TidsForMember("Location", 3, "Aalborg")
	if len(tids) != 2 || tids[0] != 1 || tids[1] != 2 {
		t.Fatalf("TidsForMember = %v, want [1 2]", tids)
	}
}

func TestMetadataMemberLookup(t *testing.T) {
	c := newTestCache(t)
	ts, err := c.Series(3)
	if err != nil {
		t.Fatal(err)
	}
	if got := ts.Member("Location", 4); got != "9634" {
		t.Fatalf("Member level 4 = %q, want 9634", got)
	}
	if got := ts.Member("Location", 9); got != "" {
		t.Fatalf("out-of-range level = %q, want empty", got)
	}
	if got := ts.Member("Nope", 1); got != "" {
		t.Fatalf("unknown dimension = %q, want empty", got)
	}
}

func TestMetadataUnknownTid(t *testing.T) {
	c := newTestCache(t)
	if _, err := c.Series(0); err == nil {
		t.Fatal("Tid 0 must fail")
	}
	if _, err := c.Series(4); err == nil {
		t.Fatal("Tid beyond range must fail")
	}
}
