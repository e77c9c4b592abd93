// TestFootprintMatrix is the footprint record: what the store holds
// after loading fixed synthetic data, cell by cell and byte for byte,
// checked against the committed bench/footprint.json. The cells are the
// paper's compression evidence (§7, Fig. 14–18): EP and EH at each
// evaluated error bound, grouped and single, plus the §5.2 and §4.2
// ablations. Rewrite the record with
//
//	go test -run TestFootprintMatrix -update .
//
// and commit the diff: it is the claim of any change that moves a
// stored byte. The paper's properties are asserted apart from the
// record, by the TestFig* and TestSec52 tests over the same cells, so
// -update cannot bless a change that breaks one.
package modelardb

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/models"
	"modelardb/internal/storage"
	"modelardb/internal/tsgen"
)

var updateFootprint = flag.Bool("update", false, "rewrite bench/footprint.json from this run")

const footprintPath = "bench/footprint.json"

// footprintSetup is written into the record so that a reader of the
// JSON knows what the numbers count.
const footprintSetup = "In-memory store after Flush, DefaultConfig (LengthLimit 50). " +
	"EP: tsgen 12 entities x 4 measures x 4000 ticks, seed 42, gap rate 0.0005; grouped = the clauses " +
	"'Production 0, Measure 1 Production' and 'Production 0, Measure 1 Temperature'. EH: tsgen 16 series x 10000 ticks, seed 43, gap rate " +
	"0.0005; grouped = the lowest-distance clause 0.16666667. single = no correlations, splitting off. " +
	"'distance 0.5' = grouped by that clause instead (Fig. 18). bytes = the store's SizeBytes " +
	"(Stats.StorageBytes, the numerator of bytes_per_point: the segment log without its 8-byte frame headers); " +
	"log_bytes = the segment log's length after Flush, frame headers included; at_limit = segments of length " +
	"LengthLimit; models = segments per model name. The 5.2/5.1 ablation rows store the segments four EP " +
	"entities emit in pairs of series in one in-memory store; the splitting rows are two series that decorrelate halfway. " +
	"The 'stand-in' rows are the data set's points, in its order, in widely used formats: CSV 'tid,ts,value' with " +
	"the value's shortest float32 digits, raw little-endian (int64 ts, float32 value) pairs, and each of the two " +
	"through compress/gzip at BestCompression; stand_in_ratios = a stand-in's bytes / the row's bytes, to two " +
	"decimals, on every row over EP or EH. Toolchain: "

// footprintRow is one cell of the record.
type footprintRow struct {
	Name       string           `json:"name"`
	Points     int64            `json:"points"`
	Bytes      int64            `json:"bytes"`
	LogBytes   int64            `json:"log_bytes"`
	Segments   int64            `json:"segments"`
	AtLimit    int64            `json:"at_limit"`
	ParamBytes int64            `json:"param_bytes"`
	Models     map[string]int64 `json:"models"`
	// StandInRatios is, on a row over EP or EH, each stand-in row's
	// bytes over the row's bytes, by stand-in format.
	StandInRatios map[string]float64 `json:"stand_in_ratios,omitempty"`
}

type footprintRecord struct {
	Setup string         `json:"setup"`
	Rows  []footprintRow `json:"rows"`
}

// add counts one stored segment.
func (r *footprintRow) add(s *core.Segment, limit int, reg *models.Registry) {
	r.Segments++
	if s.Length() == limit {
		r.AtLimit++
	}
	r.ParamBytes += int64(len(s.Params))
	if r.Models == nil {
		r.Models = map[string]int64{}
	}
	mt, _ := reg.Get(s.MID) // every stored MID came from reg
	r.Models[mt.Name()]++
}

// footprintData is a data set with its points materialized once, so
// that every cell over it ingests the same slice.
type footprintData struct {
	name   string
	d      *tsgen.Dataset
	points []core.DataPoint
	// grouped is the data set's correlation clauses.
	grouped []string
}

func newFootprintData(name string, d *tsgen.Dataset, grouped ...string) *footprintData {
	fd := &footprintData{name: name, d: d, grouped: grouped}
	fd.points = make([]core.DataPoint, 0, d.TotalPoints())
	d.Points(func(p core.DataPoint) error {
		fd.points = append(fd.points, p)
		return nil
	})
	return fd
}

// config is a database over the data set at bound, grouped by clauses
// or, when single, with no correlations and no splitting.
func (fd *footprintData) config(bound float64, clauses []string, single bool) Config {
	cfg := DefaultConfig()
	cfg.ErrorBound = RelBound(bound)
	cfg.Dimensions = fd.d.Dimensions
	cfg.Correlations = clauses
	if single {
		cfg.Correlations = nil
		cfg.DisableSplitting = true
	}
	for _, s := range fd.d.Series {
		cfg.Series = append(cfg.Series, SeriesConfig{SI: s.SI, Source: s.Source, Members: s.Members})
	}
	return cfg
}

// load appends the data set's points one at a time, flushes, and
// counts what the store holds.
func (fd *footprintData) load(cfg Config) (footprintRow, error) {
	return loadFootprint(cfg, func(db *DB) error {
		for _, p := range fd.points {
			if err := db.Append(p.Tid, p.TS, p.Value); err != nil {
				return err
			}
		}
		return nil
	})
}

func loadFootprint(cfg Config, fill func(*DB) error) (footprintRow, error) {
	var row footprintRow
	db, err := Open(cfg)
	if err != nil {
		return row, err
	}
	defer db.Close()
	if err := fill(db); err != nil {
		return row, err
	}
	if err := db.Flush(); err != nil {
		return row, err
	}
	if row.Bytes, err = db.store.SizeBytes(); err != nil {
		return row, err
	}
	row.LogBytes = db.store.LogOffset()
	st, err := db.Stats()
	if err != nil {
		return row, err
	}
	row.Points = st.DataPoints
	err = db.store.Scan(context.Background(), storage.AllTime(), func(s *core.Segment) error {
		row.add(s, db.cfg.LengthLimit, db.reg)
		return nil
	})
	return row, err
}

// ablationModels is §5.2 against §5.1: four EP entities whose two
// series per category are compressed as one group, either by the
// builtin models (one model for the whole group) or by the Multi*
// wrappers (one model per series in a segment).
func ablationModels(multi bool) (footprintRow, error) {
	reg := models.NewBuiltinRegistry()
	if multi {
		reg = models.NewRegistry()
		reg.Register(models.NewMulti(models.PMCType{}, models.MidMultiBase))
		reg.Register(models.NewMulti(models.SwingType{}, models.MidMultiBase+1))
		reg.Register(models.NewMulti(models.GorillaType{}, models.MidMultiBase+2))
	}
	d := tsgen.EP(tsgen.EPConfig{Entities: 4, Ticks: 2000, Seed: 42})
	// Group e*2+pair+1 holds the pair's two series, e*4+pair*2+1 and the next.
	store := storage.NewMemStore(func(gid core.Gid) []core.Tid {
		first := core.Tid(2*gid - 1)
		return []core.Tid{first, first + 1}
	})
	defer store.Close()
	var row footprintRow
	for e := 0; e < 4; e++ {
		for pair := 0; pair < 2; pair++ {
			first := core.Tid(e*4 + pair*2 + 1)
			tids := []core.Tid{first, first + 1}
			cfg := core.IngestorConfig{Generator: core.GeneratorConfig{
				Registry: reg,
				Bound:    models.RelBound(5),
				OnSegment: func(s *core.Segment) error {
					row.add(s, core.DefaultLengthLimit, reg)
					return store.Insert(s)
				},
			}}
			gi := core.NewGroupIngestor(cfg, core.Gid(e*2+pair+1), d.SI, tids)
			err := d.Points(func(p core.DataPoint) error {
				if p.Tid != tids[0] && p.Tid != tids[1] {
					return nil
				}
				row.Points++
				return gi.Append(p.Tid, p.TS, p.Value)
			})
			if err != nil {
				return row, err
			}
			if err := gi.Flush(); err != nil {
				return row, err
			}
		}
	}
	if err := store.Flush(); err != nil {
		return row, err
	}
	var err error
	row.Bytes, err = store.SizeBytes()
	row.LogBytes = store.LogOffset()
	return row, err
}

// ablationSplitting is §4.2: one group of two series that decorrelate
// halfway through, with dynamic splitting on or off.
func ablationSplitting(disable bool) (footprintRow, error) {
	cfg := DefaultConfig()
	cfg.ErrorBound = AbsBound(0.5)
	cfg.Dimensions = []Dimension{{Name: "Location", Levels: []string{"Park"}}}
	cfg.Correlations = []string{"Location 1"}
	cfg.DisableSplitting = disable
	cfg.SplitFraction = 3
	cfg.Series = []SeriesConfig{
		{SI: 1000, Members: map[string][]string{"Location": {"P"}}},
		{SI: 1000, Members: map[string][]string{"Location": {"P"}}},
	}
	return loadFootprint(cfg, func(db *DB) error {
		for tick := 0; tick < 4000; tick++ {
			ts := int64(tick) * 1000
			v2 := float32(100.2)
			if tick >= 2000 {
				v2 = float32(500 + 50*((tick*tick)%97))
			}
			if err := db.Append(1, ts, 100); err != nil {
				return err
			}
			if err := db.Append(2, ts, v2); err != nil {
				return err
			}
		}
		return nil
	})
}

var footprintBounds = []float64{0, 1, 5, 10}

// standInFormats are the widely used formats the store is compared
// with (the abstract's "compared to widely used formats"); each
// returns the bytes of the data set's points in that format.
var standInFormats = []struct {
	name   string
	encode func([]core.DataPoint) []byte
}{
	{"CSV", standInCSV},
	{"CSV gzip", func(ps []core.DataPoint) []byte { return gzipBest(standInCSV(ps)) }},
	{"raw", standInRaw},
	{"raw gzip", func(ps []core.DataPoint) []byte { return gzipBest(standInRaw(ps)) }},
}

// standInCSV is one "tid,ts,value" line per point, the value in its
// shortest float32 digits.
func standInCSV(points []core.DataPoint) []byte {
	var out []byte
	for _, p := range points {
		out = strconv.AppendInt(out, int64(p.Tid), 10)
		out = append(out, ',')
		out = strconv.AppendInt(out, p.TS, 10)
		out = append(out, ',')
		out = strconv.AppendFloat(out, float64(p.Value), 'g', -1, 32)
		out = append(out, '\n')
	}
	return out
}

// standInRaw is one little-endian (int64 ts, float32 value) pair per
// point.
func standInRaw(points []core.DataPoint) []byte {
	out := make([]byte, 0, 12*len(points))
	for _, p := range points {
		out = binary.LittleEndian.AppendUint64(out, uint64(p.TS))
		out = binary.LittleEndian.AppendUint32(out, math.Float32bits(p.Value))
	}
	return out
}

// gzipBest compresses data with compress/gzip at BestCompression.
func gzipBest(data []byte) []byte {
	var buf bytes.Buffer
	w, err := gzip.NewWriterLevel(&buf, gzip.BestCompression)
	if err != nil {
		panic(err)
	}
	w.Write(data) // a bytes.Buffer does not fail
	w.Close()
	return buf.Bytes()
}

// standInName is the name of a data set's stand-in row of a format.
func standInName(set, format string) string {
	return set + " stand-in " + format
}

func cellName(set string, bound float64, kind string) string {
	return fmt.Sprintf("%s %g%% %s", set, bound, kind)
}

// footprintRows computes every row of the record, the cells in
// parallel: each owns its database, so the result does not depend on
// the schedule.
func footprintRows() ([]footprintRow, error) {
	ep := newFootprintData("EP",
		tsgen.EP(tsgen.EPConfig{Entities: 12, Ticks: 4000, Seed: 42, GapRate: 0.0005}),
		"Production 0, Measure 1 Production", "Production 0, Measure 1 Temperature")
	eh := newFootprintData("EH",
		tsgen.EH(tsgen.EHConfig{Series: 16, Ticks: 10000, Seed: 43, GapRate: 0.0005}),
		"0.16666667")
	// set names the data set a job's row is over; the rows over EP and
	// EH, stand-ins aside, gain their ratios to the stand-ins.
	type job struct {
		name, set string
		run       func() (footprintRow, error)
	}
	var jobs []job
	for _, fd := range []*footprintData{ep, eh} {
		for _, bound := range footprintBounds {
			for _, single := range []bool{false, true} {
				kind := "grouped"
				if single {
					kind = "single"
				}
				jobs = append(jobs, job{cellName(fd.name, bound, kind), fd.name, func() (footprintRow, error) {
					return fd.load(fd.config(bound, fd.grouped, single))
				}})
			}
		}
		jobs = append(jobs, job{cellName(fd.name, 10, "distance 0.5"), fd.name, func() (footprintRow, error) {
			return fd.load(fd.config(10, []string{"0.5"}, false))
		}})
		for _, f := range standInFormats {
			jobs = append(jobs, job{standInName(fd.name, f.name), "", func() (footprintRow, error) {
				return footprintRow{Points: int64(len(fd.points)), Bytes: int64(len(f.encode(fd.points)))}, nil
			}})
		}
	}
	jobs = append(jobs,
		job{"ablation 5.2 single model per group", "", func() (footprintRow, error) { return ablationModels(false) }},
		job{"ablation 5.1 one model per series", "", func() (footprintRow, error) { return ablationModels(true) }},
		job{"ablation 4.2 splitting on", "", func() (footprintRow, error) { return ablationSplitting(false) }},
		job{"ablation 4.2 splitting off", "", func() (footprintRow, error) { return ablationSplitting(true) }},
	)

	rows := make([]footprintRow, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			rows[i], errs[i] = j.run()
			rows[i].Name = j.name
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
	}
	bytesOf := make(map[string]int64, len(rows))
	for _, r := range rows {
		bytesOf[r.Name] = r.Bytes
	}
	for i, j := range jobs {
		if j.set == "" {
			continue
		}
		rows[i].StandInRatios = map[string]float64{}
		for _, f := range standInFormats {
			ratio := float64(bytesOf[standInName(j.set, f.name)]) / float64(rows[i].Bytes)
			rows[i].StandInRatios[f.name] = math.Round(100*ratio) / 100
		}
	}
	return rows, nil
}

// diffFootprint describes, one line per cell, how got differs from
// want; it is empty when they are equal.
func diffFootprint(want, got []footprintRow) []string {
	index := func(rows []footprintRow) map[string]footprintRow {
		m := make(map[string]footprintRow, len(rows))
		for _, r := range rows {
			m[r.Name] = r
		}
		return m
	}
	wantBy, gotBy := index(want), index(got)
	var lines []string
	for _, w := range want {
		g, ok := gotBy[w.Name]
		if !ok {
			lines = append(lines, w.Name+": in the record, not computed")
			continue
		}
		if reflect.DeepEqual(w, g) {
			continue
		}
		var parts []string
		field := func(name string, a, b int64) {
			if a == b {
				return
			}
			s := fmt.Sprintf("%s %d → %d", name, a, b)
			if a != 0 {
				s += fmt.Sprintf(" (%+.2f%%)", 100*float64(b-a)/float64(a))
			}
			parts = append(parts, s)
		}
		field("points", w.Points, g.Points)
		field("bytes", w.Bytes, g.Bytes)
		field("log_bytes", w.LogBytes, g.LogBytes)
		field("segments", w.Segments, g.Segments)
		field("at_limit", w.AtLimit, g.AtLimit)
		field("param_bytes", w.ParamBytes, g.ParamBytes)
		var names []string
		for name := range w.Models {
			names = append(names, name)
		}
		for name := range g.Models {
			if _, ok := w.Models[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			field("models."+name, w.Models[name], g.Models[name])
		}
		for _, f := range standInFormats {
			if a, b := w.StandInRatios[f.name], g.StandInRatios[f.name]; a != b {
				parts = append(parts, fmt.Sprintf("stand_in_ratios.%s %g → %g", f.name, a, b))
			}
		}
		lines = append(lines, w.Name+": "+strings.Join(parts, ", "))
	}
	for _, g := range got {
		if _, ok := wantBy[g.Name]; !ok {
			lines = append(lines, g.Name+": computed, not in the record")
		}
	}
	return lines
}

// footprintOnce holds the rows, computed once for TestFootprintMatrix
// and the property tests, which all read the same cells.
var footprintOnce struct {
	sync.Once
	rows []footprintRow
	err  error
}

// footprintCells returns the record's rows in order and by name.
func footprintCells(t *testing.T) ([]footprintRow, map[string]footprintRow) {
	t.Helper()
	footprintOnce.Do(func() { footprintOnce.rows, footprintOnce.err = footprintRows() })
	if footprintOnce.err != nil {
		t.Fatal(footprintOnce.err)
	}
	by := make(map[string]footprintRow, len(footprintOnce.rows))
	for _, r := range footprintOnce.rows {
		by[r.Name] = r
	}
	return footprintOnce.rows, by
}

func TestFootprintMatrix(t *testing.T) {
	rows, _ := footprintCells(t)
	if *updateFootprint {
		out, err := json.MarshalIndent(footprintRecord{Setup: footprintSetup + runtime.Version() + ".", Rows: rows}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(footprintPath, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(footprintPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	var rec footprintRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("%s: %v", footprintPath, err)
	}
	if diff := diffFootprint(rec.Rows, rows); len(diff) > 0 {
		t.Errorf("the store's footprint moved; if that is the change's claim, rerun with -update and commit %s:\n  %s",
			footprintPath, strings.Join(diff, "\n  "))
	}
}

// The paper's properties follow, asserted apart from the record.

// assertSmaller fails t unless cell a holds fewer bytes than cell b.
func assertSmaller(t *testing.T, by map[string]footprintRow, what, a, b string) {
	t.Helper()
	if by[a].Bytes >= by[b].Bytes {
		t.Errorf("%s: %s (%d B) is not smaller than %s (%d B)", what, a, by[a].Bytes, b, by[b].Bytes)
	}
}

// assertBoundShrinks fails t if the data set's bytes grow with the
// error bound, grouped or single.
func assertBoundShrinks(t *testing.T, by map[string]footprintRow, set string) {
	t.Helper()
	for _, kind := range []string{"grouped", "single"} {
		for i := 1; i < len(footprintBounds); i++ {
			lo, hi := cellName(set, footprintBounds[i-1], kind), cellName(set, footprintBounds[i], kind)
			if by[hi].Bytes > by[lo].Bytes {
				t.Errorf("bytes grow with the bound: %s %d B > %s %d B", hi, by[hi].Bytes, lo, by[lo].Bytes)
			}
		}
	}
}

// TestFig14Shape: on EP, a larger bound never costs bytes, and grouping
// correlated series beats compressing each alone at every bound. On EP
// and EH, every grouped cell at a non-zero bound stores fewer bytes
// than every stand-in format holds the same points in.
func TestFig14Shape(t *testing.T) {
	_, by := footprintCells(t)
	assertBoundShrinks(t, by, "EP")
	for _, bound := range footprintBounds {
		assertSmaller(t, by, "Fig. 14", cellName("EP", bound, "grouped"), cellName("EP", bound, "single"))
	}
	for _, set := range []string{"EP", "EH"} {
		for _, bound := range footprintBounds[1:] {
			for _, f := range standInFormats {
				assertSmaller(t, by, "Fig. 14 stand-ins", cellName(set, bound, "grouped"), standInName(set, f.name))
			}
		}
	}
}

// TestFig15CrossoverShape: on EH, a larger bound never costs bytes, and
// grouping pays once the bound is large enough (10 %).
func TestFig15CrossoverShape(t *testing.T) {
	_, by := footprintCells(t)
	assertBoundShrinks(t, by, "EH")
	assertSmaller(t, by, "Fig. 15", cellName("EH", 10, "grouped"), cellName("EH", 10, "single"))
}

// TestFig16ModelsSumTo100: every stored segment is counted under exactly
// one model, in every cell.
func TestFig16ModelsSumTo100(t *testing.T) {
	rows, _ := footprintCells(t)
	for _, r := range rows {
		var sum int64
		for _, n := range r.Models {
			sum += n
		}
		if sum != r.Segments {
			t.Errorf("%s: per-model segments sum to %d, want %d", r.Name, sum, r.Segments)
		}
	}
}

// TestFig18LowestDistanceSmallest: only the lowest distance pays off; a
// larger one groups series that do not correlate.
func TestFig18LowestDistanceSmallest(t *testing.T) {
	_, by := footprintCells(t)
	for _, set := range []string{"EP", "EH"} {
		assertSmaller(t, by, "Fig. 18", cellName(set, 10, "grouped"), cellName(set, 10, "distance 0.5"))
	}
}

// TestSec52ShowsReduction: one model for a whole group stores less than
// one model per series (§5.2 vs §5.1), and splitting a group whose
// series decorrelate stores less than keeping it whole (§4.2).
func TestSec52ShowsReduction(t *testing.T) {
	_, by := footprintCells(t)
	assertSmaller(t, by, "§5.2 vs §5.1", "ablation 5.2 single model per group", "ablation 5.1 one model per series")
	assertSmaller(t, by, "§4.2", "ablation 4.2 splitting on", "ablation 4.2 splitting off")
}
