package storage

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"modelardb/internal/core"
	"modelardb/internal/dims"
	"modelardb/internal/durable"
)

// MetaFile is the persisted image of the Time Series table and the
// dimension schema (Fig. 6), written next to the segment log so a
// file-backed database can be reopened.
type MetaFile struct {
	Dimensions []dims.Dimension
	Series     []SeriesMeta
	// Correlations preserves the textual correlation clauses the
	// database was configured with.
	Correlations []string
}

// SeriesMeta is one persisted Time Series table row.
type SeriesMeta struct {
	Tid     core.Tid
	SI      int64
	Gid     core.Gid
	Scaling float32
	Source  string
	Members map[string][]string
}

const metaName = "timeseries.meta"

// SaveMeta durably replaces the metadata file in dir on fsys.
func SaveMeta(fsys durable.FS, dir string, meta *MetaFile) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(meta); err != nil {
		return fmt.Errorf("storage: encode meta: %w", err)
	}
	if err := durable.Replace(fsys, filepath.Join(dir, metaName), buf.Bytes()); err != nil {
		return fmt.Errorf("storage: save meta: %w", err)
	}
	return nil
}

// LoadMeta reads the metadata file in dir on fsys; ok is false when
// none exists.
func LoadMeta(fsys durable.FS, dir string) (meta *MetaFile, ok bool, err error) {
	data, err := durable.ReadFile(fsys, filepath.Join(dir, metaName))
	if errors.Is(err, os.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("storage: %w", err)
	}
	meta = &MetaFile{}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(meta); err != nil {
		return nil, false, fmt.Errorf("storage: decode meta: %w", err)
	}
	return meta, true, nil
}
