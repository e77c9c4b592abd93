package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"modelardb"
	"modelardb/internal/core"
	"modelardb/internal/tsgen"
)

// qspec is one panel query in a form both the SQL renderer and the
// raw-point oracle read, so the question asked and the answer expected
// cannot drift apart.
type qspec struct {
	id     string   // q1..q4, the suffix of client.query_p50_ms.<id>
	text   string   // the rendered SQL, filled in by generate
	view   string   // "Segment" or "DataPoint"
	group  []string // GROUP BY columns, selected first
	aggs   []string // SUM COUNT MIN MAX AVG, in select order
	cube   string   // HOUR or MONTH: CUBE_SUM_<cube>(*) instead of aggs
	rows   bool     // SELECT Tid, TS, Value instead of aggregates
	tids   []core.Tid
	member [2]string // column = 'value'
	ranged bool      // TS BETWEEN from AND to
	from   int64
	to     int64
	order  string
}

// sql renders the query text handed to the system under test; generate
// stores it in text.
func (q qspec) sql() string {
	var sel []string
	sel = append(sel, q.group...)
	switch {
	case q.rows:
		sel = append(sel, "Tid", "TS", "Value")
	case q.cube != "":
		sel = append(sel, "CUBE_SUM_"+q.cube+"(*)")
	default:
		for _, a := range q.aggs {
			switch {
			case q.view == "Segment":
				sel = append(sel, a+"_S(*)")
			case a == "COUNT":
				sel = append(sel, "COUNT(*)")
			default:
				sel = append(sel, a+"(Value)")
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "SELECT %s FROM %s", strings.Join(sel, ", "), q.view)
	var where []string
	switch {
	case len(q.tids) == 1:
		where = append(where, fmt.Sprintf("Tid = %d", q.tids[0]))
	case len(q.tids) > 1:
		parts := make([]string, len(q.tids))
		for i, t := range q.tids {
			parts[i] = strconv.Itoa(int(t))
		}
		where = append(where, "Tid IN ("+strings.Join(parts, ", ")+")")
	}
	if q.member[0] != "" {
		where = append(where, fmt.Sprintf("%s = '%s'", q.member[0], q.member[1]))
	}
	if q.ranged {
		where = append(where, fmt.Sprintf("TS BETWEEN %d AND %d", q.from, q.to))
	}
	if len(where) > 0 {
		b.WriteString(" WHERE " + strings.Join(where, " AND "))
	}
	if len(q.group) > 0 {
		b.WriteString(" GROUP BY " + strings.Join(q.group, ", "))
	}
	if q.order != "" {
		b.WriteString(" ORDER BY " + q.order)
	}
	return b.String()
}

// inputs is everything one workload run feeds the system: generated
// from the seed and nothing else.
type inputs struct {
	def workloadDef
	ds  *tsgen.Dataset
	// cfg is DefaultConfig plus the workload's named fields; Path and
	// WALDir are filled in per instance when onDisk / withWAL are set.
	cfg     modelardb.Config
	onDisk  bool
	withWAL bool
	// points is the bulk-loaded data, tick-major.
	points []core.DataPoint
	// stream and bodies are mixed_http's open-loop appends: the points
	// after the history and their pre-rendered JSON request bodies.
	stream []core.DataPoint
	bodies [][]byte
	// panels are the refresh panels the reader cycles through (one for
	// every workload but mixed_http).
	panels [][]qspec
	// cross is the other view's panel, for the agg_segment ≡
	// agg_datapoint check.
	cross []qspec
	// checksum is the FNV-64a of points, stream and every SQL text.
	checksum uint64
}

// generate builds the inputs of one workload. appends is the number of
// open-loop appends mixed_http will send (rate × window); the other
// workloads ignore it.
func generate(def workloadDef, sc scale, seed int64, appends int) (*inputs, error) {
	in := &inputs{def: def}
	in.cfg = modelardb.DefaultConfig()
	in.cfg.ErrorBound = def.bound
	rng := rand.New(rand.NewSource(seed))
	switch def.name {
	case wIngestBulk, wAggSegment, wAggDataPoint:
		in.ds = tsgen.EP(tsgen.EPConfig{
			Entities: sc.epEntities, Ticks: sc.epTicks, Seed: seed,
			GapRate: gapRate, StartTime: epStart,
		})
		in.cfg.Correlations = epClauses
		in.onDisk, in.withWAL = true, true
		in.cfg.WALFsync = "interval"
		tids := pickTids(rng, len(in.ds.Series), 5)
		seg := []qspec{
			{id: "q1", view: "Segment", aggs: []string{"SUM", "COUNT", "MIN", "MAX"}},
			{id: "q2", view: "Segment", group: []string{"Category"}, cube: "MONTH", member: [2]string{"Category", "Production"}},
			{id: "q3", view: "Segment", group: []string{"Entity", "Tid"}, cube: "HOUR"},
			{id: "q4", view: "Segment", group: []string{"Tid"}, aggs: []string{"SUM"}, tids: tids},
		}
		dp := []qspec{
			{id: "q1", view: "DataPoint", aggs: []string{"SUM", "COUNT", "MIN", "MAX"}},
			{id: "q2", view: "DataPoint", group: []string{"Category"}, aggs: []string{"SUM"}, member: [2]string{"Category", "Production"}},
			{id: "q3", view: "DataPoint", group: []string{"Entity", "Tid"}, aggs: []string{"SUM"}},
			{id: "q4", view: "DataPoint", group: []string{"Tid"}, aggs: []string{"SUM"}, tids: tids},
		}
		switch def.name {
		case wIngestBulk:
			// The read-your-writes panel issued after every load: cheap on
			// purpose, so the window goes to ingestion.
			in.panels = [][]qspec{{
				{id: "q1", view: "Segment", aggs: []string{"COUNT"}},
				{id: "q2", view: "Segment", aggs: []string{"SUM", "MIN", "MAX"}},
			}}
		case wAggSegment:
			in.panels, in.cross = [][]qspec{seg}, dp
		case wAggDataPoint:
			in.panels, in.cross = [][]qspec{dp}, seg
		}
	case wScatterTCP2:
		in.ds = tsgen.EH(tsgen.EHConfig{Series: sc.ehSeries, Ticks: sc.ehTicks, Seed: seed, GapRate: gapRate})
		in.cfg.Correlations = []string{ehClause}
		// A seeded window of scatterScanTicks ticks: ≈ 120 k rows that
		// leave the workers as many chunk frames.
		span := int64(sc.scatterScanTicks) * in.ds.SI
		from := rng.Int63n(int64(sc.ehTicks)*in.ds.SI-span) / in.ds.SI * in.ds.SI
		in.panels = [][]qspec{{
			{id: "q1", view: "DataPoint", group: []string{"Tid"}, aggs: []string{"COUNT", "SUM"}, order: "Tid"},
			{id: "q2", view: "Segment", group: []string{"Entity"}, cube: "HOUR"},
			{id: "q3", view: "DataPoint", rows: true, ranged: true, from: from, to: from + span - in.ds.SI, order: "Tid, TS"},
		}}
	case wMixedHTTP:
		need := appends * sc.httpPoints
		// Gaps thin the stream a little; generate a margin and cut the
		// stream to exactly the points the appends carry.
		extra := need/sc.ehSeries + need/(sc.ehSeries*10) + 64
		in.ds = tsgen.EH(tsgen.EHConfig{Series: sc.ehSeries, Ticks: sc.httpHistory + extra, Seed: seed, GapRate: gapRate})
		in.onDisk, in.withWAL = true, true
		in.cfg.WALFsync = "interval"
		si := in.ds.SI
		horizon := httpHorizon.Milliseconds()
		if max := int64(sc.httpHistory) * si / 2; horizon > max {
			horizon = max
		}
		end := int64(sc.httpHistory) * si
		for v := 0; v < sc.httpVariants; v++ {
			at := func(span int64) int64 { return rng.Int63n(end-span) / si * si }
			one := pickTids(rng, sc.ehSeries, 1)
			p, r, a, s := at(si), at(100*si), at(horizon), at(horizon)
			in.panels = append(in.panels, []qspec{
				{id: "q1", view: "DataPoint", rows: true, tids: one, ranged: true, from: p, to: p},
				{id: "q2", view: "DataPoint", rows: true, tids: pickTids(rng, sc.ehSeries, 1), ranged: true, from: r, to: r + 99*si},
				{id: "q3", view: "DataPoint", group: []string{"Tid"}, aggs: []string{"COUNT", "SUM"}, tids: pickTids(rng, sc.ehSeries, 5), ranged: true, from: a, to: a + horizon - si},
				{id: "q4", view: "DataPoint", rows: true, tids: pickTids(rng, sc.ehSeries, 4), ranged: true, from: s, to: s + horizon - si},
			})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", def.name)
	}
	for _, panel := range in.allPanels() {
		for i := range panel {
			panel[i].text = panel[i].sql()
		}
	}
	in.cfg.Dimensions = in.ds.Dimensions
	for _, sp := range in.ds.Series {
		in.cfg.Series = append(in.cfg.Series, modelardb.SeriesConfig{SI: sp.SI, Source: sp.Source, Members: sp.Members})
	}

	historyEnd := int64(math.MaxInt64)
	if def.name == wMixedHTTP {
		historyEnd = int64(sc.httpHistory) * in.ds.SI
	}
	need := appends * sc.httpPoints
	// Sized up front: growing a slice of millions of points by doubling
	// would make set-up time depend on the collector's mood.
	in.points = make([]core.DataPoint, 0, len(in.ds.Series)*min(in.ds.Ticks, int(historyEnd/in.ds.SI)))
	in.stream = make([]core.DataPoint, 0, need)
	errFull := fmt.Errorf("stream full")
	err := in.ds.Points(func(p core.DataPoint) error {
		if p.TS < historyEnd {
			in.points = append(in.points, p)
			return nil
		}
		if len(in.stream) == need {
			return errFull
		}
		in.stream = append(in.stream, p)
		return nil
	})
	if err != nil && err != errFull {
		return nil, err
	}
	if def.name == wMixedHTTP {
		if len(in.stream) < need {
			return nil, fmt.Errorf("mixed_http: generated %d stream points, need %d", len(in.stream), need)
		}
		for i := 0; i < appends; i++ {
			in.bodies = append(in.bodies, renderAppend(in.stream[i*sc.httpPoints:(i+1)*sc.httpPoints]))
		}
	}
	in.checksum = in.hash()
	return in, nil
}

// pickTids draws n distinct Tids of 1..series, ascending.
func pickTids(rng *rand.Rand, series, n int) []core.Tid {
	if n > series {
		n = series
	}
	perm := rng.Perm(series)[:n]
	sort.Ints(perm)
	out := make([]core.Tid, n)
	for i, p := range perm {
		out[i] = core.Tid(p + 1)
	}
	return out
}

// renderAppend renders one /api/v1/append request body. Values print
// with the shortest text that parses back to the same float32, so the
// lossless store must return them bit for bit.
func renderAppend(pts []core.DataPoint) []byte {
	b := make([]byte, 0, len(pts)*48)
	b = append(b, `{"points":[`...)
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"tid":`...)
		b = strconv.AppendInt(b, int64(p.Tid), 10)
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, p.TS, 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendFloat(b, float64(p.Value), 'g', -1, 32)
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// hash is the FNV-64a of everything the system under test receives.
func (in *inputs) hash() uint64 {
	h := fnv.New64a()
	var buf [16]byte
	for _, set := range [][]core.DataPoint{in.points, in.stream} {
		for _, p := range set {
			binary.LittleEndian.PutUint32(buf[0:], uint32(p.Tid))
			binary.LittleEndian.PutUint64(buf[4:], uint64(p.TS))
			binary.LittleEndian.PutUint32(buf[12:], math.Float32bits(p.Value))
			h.Write(buf[:])
		}
	}
	for _, panel := range in.allPanels() {
		for _, q := range panel {
			h.Write([]byte(q.text))
			h.Write([]byte{0})
		}
	}
	return h.Sum64()
}

// allPanels is every query list the run may send: the refresh panels
// and the cross-check panel.
func (in *inputs) allPanels() [][]qspec {
	return append(append([][]qspec{}, in.panels...), in.cross)
}

// pinned holds the input checksums of the frozen scale at runSeconds
// for the two reference seeds. A mismatch means internal/tsgen, the
// panel renderer or a frozen constant changed what the benchmark
// measures; re-pin only in a PR that redefines the baseline.
var pinned = map[string]uint64{
	"ingest_bulk/42":   0x4c4db8d1d24598ed,
	"agg_segment/42":   0x7d77a326889bb9af,
	"agg_datapoint/42": 0xf0200f466eb2af17,
	"scatter_tcp2/42":  0xebbca55457583150,
	"mixed_http/42":    0x7e73324f95d44f38,
	"ingest_bulk/43":   0x334c4154697095ef,
	"agg_segment/43":   0x817ab6c375e355c3,
	"agg_datapoint/43": 0x669e6b83ddc384f9,
	"scatter_tcp2/43":  0x7d1366413ffb9c0a,
	"mixed_http/43":    0x3b67a461fbdee9fa,
}

func pinKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }
