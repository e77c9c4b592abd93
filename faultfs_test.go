package modelardb

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"

	"modelardb/internal/durable"
)

// errInjected is the error of a call faultFS fails on purpose.
var errInjected = errors.New("injected fault")

// faultFS is a file system held in memory that models an OS crash and
// injects faults, so tests can crash the WAL, the store and their
// metadata at any write or sync. It remembers what has been made
// durable: a file's bytes up to its last Sync (a Truncate takes effect
// at once, the harsher outcome) and a directory's entries as of its
// last SyncDir. crash returns what an OS crash would leave behind.
// Directories are implicit and always exist.
type faultFS struct {
	mu                        sync.Mutex
	writes, syncs             int // calls counted since the last fail
	failWrite, keep, failSync int
	files                     map[string]*faultFile // the entries as they are now
	durable                   map[string]*faultFile // the entries a crash keeps
}

var _ durable.FS = (*faultFS)(nil)

func newFaultFS() *faultFS {
	return &faultFS{files: map[string]*faultFile{}, durable: map[string]*faultFile{}}
}

// fail arms faults counted from this call: the writeN-th WriteAt,
// across all files, writes only its first keep bytes and fails, and
// the syncN-th Sync or SyncDir fails. 0 arms none.
func (fs *faultFS) fail(writeN, keep, syncN int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes, fs.syncs = 0, 0
	fs.failWrite, fs.keep, fs.failSync = writeN, keep, syncN
}

// writeFault counts a WriteAt of n bytes and returns how many of them
// to write and whether to fail it.
func (fs *faultFS) writeFault(n int) (int, bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes++
	if fs.writes == fs.failWrite {
		return min(fs.keep, n), true
	}
	return n, false
}

// syncFault counts a Sync or SyncDir and reports whether to fail it.
func (fs *faultFS) syncFault() bool {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.syncs++
	return fs.syncs == fs.failSync
}

func (fs *faultFS) Open(name string) (durable.File, int64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return nil, 0, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f, int64(len(f.data)), nil
}

func (fs *faultFS) Create(name string) (durable.File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if f, ok := fs.files[name]; ok {
		return f, f.Truncate(0)
	}
	f := &faultFile{fs: fs}
	fs.files[name] = f
	return f, nil
}

func (fs *faultFS) ReadDir(dir string) ([]string, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	var names []string
	for name := range fs.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (fs *faultFS) Rename(from, to string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[from]
	if !ok {
		return &os.LinkError{Op: "rename", Old: from, New: to, Err: os.ErrNotExist}
	}
	delete(fs.files, from)
	fs.files[to] = f
	return nil
}

func (fs *faultFS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return &os.PathError{Op: "remove", Path: name, Err: os.ErrNotExist}
	}
	delete(fs.files, name)
	return nil
}

func (fs *faultFS) MkdirAll(string) error { return nil }

func (fs *faultFS) SyncDir(dir string) error {
	if fs.syncFault() {
		return errInjected
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dir = filepath.Clean(dir)
	for name := range fs.durable {
		if filepath.Dir(name) == dir {
			delete(fs.durable, name)
		}
	}
	for name, f := range fs.files {
		if filepath.Dir(name) == dir {
			fs.durable[name] = f
		}
	}
	return nil
}

// crash returns the file system an OS crash would leave behind, with
// no faults armed; fs itself is unchanged.
func (fs *faultFS) crash() *faultFS {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := newFaultFS()
	for name, f := range fs.durable {
		f.mu.RLock()
		g := &faultFile{fs: out, data: slices.Clone(f.data[:f.synced]), synced: f.synced}
		f.mu.RUnlock()
		out.files[name], out.durable[name] = g, g
	}
	return out
}

// faultFile is one file of a faultFS.
type faultFile struct {
	fs     *faultFS
	mu     sync.RWMutex
	data   []byte
	synced int // data[:synced] survives a crash
}

func (f *faultFile) ReadAt(p []byte, off int64) (int, error) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	n := copy(p, f.data[min(off, int64(len(f.data))):])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *faultFile) WriteAt(p []byte, off int64) (int, error) {
	keep, fail := f.fs.writeFault(len(p))
	f.mu.Lock()
	if gap := int(off) - len(f.data); gap > 0 {
		f.data = append(f.data, make([]byte, gap)...)
	}
	n := copy(f.data[off:], p[:keep])
	f.data = append(f.data, p[n:keep]...)
	f.mu.Unlock()
	if fail {
		return keep, errInjected
	}
	return keep, nil
}

func (f *faultFile) Truncate(size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.data = f.data[:min(size, int64(len(f.data)))]
	f.synced = min(f.synced, len(f.data))
	return nil
}

func (f *faultFile) Sync() error {
	if f.fs.syncFault() {
		return errInjected
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.synced = len(f.data)
	return nil
}

func (f *faultFile) Close() error { return nil }
