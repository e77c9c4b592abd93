package baselines

import (
	"context"

	"fmt"

	"modelardb"
	"modelardb/internal/core"
)

// MDB adapts a ModelarDB instance to the System interface so
// ModelarDBv1 (grouping disabled) and ModelarDBv2 (MMGC) run through
// the same harness as the comparator systems. Queries go through the
// SQL engine: aggregates on the Segment View, point/range extraction
// on the Data Point View.
type MDB struct {
	db   *modelardb.DB
	name string
}

// WrapMDB adapts db under the given display name.
func WrapMDB(name string, db *modelardb.DB) *MDB {
	return &MDB{db: db, name: name}
}

// DB returns the wrapped database.
func (s *MDB) DB() *modelardb.DB { return s.db }

// Name implements System.
func (s *MDB) Name() string { return s.name }

// Append implements System.
func (s *MDB) Append(p core.DataPoint) error {
	return s.db.Append(p.Tid, p.TS, p.Value)
}

// Flush implements System.
func (s *MDB) Flush() error { return s.db.Flush() }

// SizeBytes implements System.
func (s *MDB) SizeBytes() (int64, error) {
	st, err := s.db.Stats()
	if err != nil {
		return 0, err
	}
	return st.StorageBytes, nil
}

func (s *MDB) sumQuery(sql string) (float64, int64, error) {
	res, err := s.db.Query(context.Background(), sql)
	if err != nil {
		return 0, 0, err
	}
	if len(res.Rows) == 0 {
		return 0, 0, nil
	}
	sum, _ := res.Rows[0][0].(float64)
	count, _ := res.Rows[0][1].(float64)
	return sum, int64(count), nil
}

// SumAll implements System on the Segment View.
func (s *MDB) SumAll() (float64, int64, error) {
	return s.sumQuery("SELECT SUM_S(*), COUNT_S(*) FROM Segment")
}

// SumAllDataPoints runs the same aggregate over reconstructed data
// points, the slow path Figs. 19-22 compare (DPV columns). The Value
// predicate keeps every point: without a point predicate the engine
// folds Data Point View aggregates on models like SumAll does.
func (s *MDB) SumAllDataPoints() (float64, int64, error) {
	return s.sumQuery("SELECT SUM(Value), COUNT(*) FROM DataPoint WHERE Value > -1000000000")
}

// SumSeries implements System.
func (s *MDB) SumSeries(tid core.Tid) (float64, int64, error) {
	return s.sumQuery(fmt.Sprintf("SELECT SUM_S(*), COUNT_S(*) FROM Segment WHERE Tid = %d", tid))
}

// ScanRange implements System on the Data Point View.
func (s *MDB) ScanRange(tid core.Tid, from, to int64, fn func(core.DataPoint) error) error {
	res, err := s.db.Query(context.Background(), fmt.Sprintf(
		"SELECT TS, Value FROM DataPoint WHERE Tid = %d AND TS BETWEEN %d AND %d", tid, from, to))
	if err != nil {
		return err
	}
	for _, row := range res.Rows {
		p := core.DataPoint{
			Tid:   tid,
			TS:    row[0].(int64),
			Value: float32(row[1].(float64)),
		}
		if err := fn(p); err != nil {
			return err
		}
	}
	return nil
}

// columnName resolves a dimension level to its view column name.
func (s *MDB) columnName(dim string, level int) (string, error) {
	d, ok := s.db.Schema().Dimension(dim)
	if !ok {
		return "", fmt.Errorf("baselines: unknown dimension %q", dim)
	}
	if level < 1 || level > d.Height() {
		return "", fmt.Errorf("baselines: level %d outside dimension %s", level, dim)
	}
	return fmt.Sprintf("%s.%s", d.Name, d.Levels[level-1]), nil
}

// MonthlySum implements System with a CUBE_SUM_MONTH roll-up on the
// Segment View — the model-level execution of Algorithm 6 that the
// M-AGG experiments measure.
func (s *MDB) MonthlySum(filter MemberFilter, group MemberRef, perTid bool) (map[string]map[int64]float64, error) {
	groupCol, err := s.columnName(group.Dimension, group.Level)
	if err != nil {
		return nil, err
	}
	sql := fmt.Sprintf("SELECT %s, CUBE_SUM_MONTH(*) FROM Segment", groupCol)
	if perTid {
		sql = fmt.Sprintf("SELECT %s, Tid, CUBE_SUM_MONTH(*) FROM Segment", groupCol)
	}
	if filter.Dimension != "" {
		filterCol, err := s.columnName(filter.Dimension, filter.Level)
		if err != nil {
			return nil, err
		}
		sql += fmt.Sprintf(" WHERE %s = '%s'", filterCol, filter.Member)
	}
	sql += fmt.Sprintf(" GROUP BY %s", groupCol)
	if perTid {
		sql += ", Tid"
	}
	res, err := s.db.Query(context.Background(), sql)
	if err != nil {
		return nil, err
	}
	out := map[string]map[int64]float64{}
	for _, row := range res.Rows {
		// Row layout: member, [Tid,] bucket, value.
		key := row[0].(string)
		i := 1
		if perTid {
			key = fmt.Sprintf("%s/%d", key, row[1].(int64))
			i = 2
		}
		bucket := row[i].(int64)
		val, ok := row[i+1].(float64)
		if !ok {
			continue
		}
		if out[key] == nil {
			out[key] = map[int64]float64{}
		}
		out[key][bucket] += val
	}
	return out, nil
}

// Close implements System.
func (s *MDB) Close() error { return s.db.Close() }
