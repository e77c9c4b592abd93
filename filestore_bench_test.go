package modelardb_test

import (
	"context"
	"testing"

	"modelardb/internal/core"
	"modelardb/internal/models"
	"modelardb/internal/storage"
)

// BenchmarkFileStoreScan is one full Scan of a 20 000-segment file
// store per op. It is kept for a count, not a speed: reads/segment is
// how many log reads the scan issued per segment it returned. The
// segments of eight groups arrive round-robin, as ingestion emits
// them; "clustered" writes them as one bulk, which the store sorts so
// that every chunk is one read, and "interleaved" writes each on its
// own, which leaves no two neighbours of a scan adjacent in the log.
func BenchmarkFileStoreScan(b *testing.B) {
	const segments, groups = 20000, 8
	members := func(gid core.Gid) []core.Tid { return []core.Tid{core.Tid(gid)} }
	for _, tc := range []struct {
		name string
		bulk int
	}{{"clustered", segments}, {"interleaved", 1}} {
		b.Run(tc.name, func(b *testing.B) {
			fs, err := storage.OpenFileStore(b.TempDir(), members, tc.bulk)
			if err != nil {
				b.Fatal(err)
			}
			defer fs.Close()
			for i := 0; i < segments; i++ {
				end := int64(i/groups) * 5000
				seg := &core.Segment{Gid: core.Gid(i%groups + 1), StartTime: end - 4900, EndTime: end, SI: 100,
					MID: models.MidPMC, Params: []byte{0, 0, 40, 66}}
				if err := fs.Insert(seg); err != nil {
					b.Fatal(err)
				}
			}
			if err := fs.Flush(); err != nil {
				b.Fatal(err)
			}
			before, _ := fs.ReadStats()
			scanned := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				err := fs.Scan(context.Background(), storage.AllTime(), func(*core.Segment) error {
					scanned++
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			reads, _ := fs.ReadStats()
			b.ReportMetric(float64(reads-before)/float64(scanned), "reads/segment")
		})
	}
}
