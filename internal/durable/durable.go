// Package durable is the one place that knows how bytes reach disk and
// come back after a crash. A log — a WAL segment, the WAL checkpoint,
// the segment store's log — is a sequence of frames: a little-endian
// uint32 payload length, the payload's CRC32, the payload. Scan reads
// a log back up to the first torn or corrupt frame, where the caller
// truncates. A small file is never rewritten in place: Replace writes
// a temp file, fsyncs it, renames it over the old one and fsyncs the
// directory, so a crash leaves the old file or the new one. All of it
// runs over FS, so tests can substitute a file system that crashes.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// FrameHeader is the size of a frame's header: payload length, CRC32.
const FrameHeader = 8

// File is what a log needs of an open file: positional reads and
// writes, so readers never disturb the writer, truncation and fsync.
// *os.File satisfies it.
type File interface {
	io.ReaderAt
	io.WriterAt
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the file system the logs live on.
type FS interface {
	// Open opens an existing file for reading and writing and returns
	// its size; a missing file is an error satisfying os.ErrNotExist.
	Open(name string) (File, int64, error)
	// Create creates an empty file, truncating any existing one.
	Create(name string) (File, error)
	// ReadDir returns the names of the entries in dir.
	ReadDir(dir string) ([]string, error)
	Rename(from, to string) error
	Remove(name string) error
	MkdirAll(dir string) error
	// SyncDir makes the entries created, renamed or removed in dir
	// survive a crash.
	SyncDir(dir string) error
}

// OS is the operating system's file system.
type OS struct{}

func (OS) Open(name string) (File, int64, error) {
	f, err := os.OpenFile(name, os.O_RDWR, 0)
	if err != nil {
		return nil, 0, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, size, nil
}

func (OS) Create(name string) (File, error) {
	f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names, err
}

func (OS) Rename(from, to string) error { return os.Rename(from, to) }
func (OS) Remove(name string) error     { return os.Remove(name) }
func (OS) MkdirAll(dir string) error    { return os.MkdirAll(dir, 0o755) }

func (OS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// AppendFrame appends payload to buf as one frame.
func AppendFrame(buf, payload []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// Scan hands the payload of each frame in the first size bytes of r to
// fn, in order, and returns the length of the valid prefix. A frame
// whose length is 0, above 1 GiB or past size, whose CRC fails, or
// whose payload fn refuses with an error ends the prefix, as does a
// header cut short: the writer never produces one, so it is a torn or
// corrupt tail. The payload is valid only during the call. Scan fails
// only when reading the size bytes fails.
func Scan(r io.ReaderAt, size int64, fn func(payload []byte) error) (int64, error) {
	br := bufio.NewReaderSize(io.NewSectionReader(r, 0, size), 1<<16)
	var header [FrameHeader]byte
	var payload []byte
	var valid int64
	for size-valid >= FrameHeader {
		if _, err := io.ReadFull(br, header[:]); err != nil {
			return valid, fmt.Errorf("durable: read: %w", err)
		}
		// Checked against what is left before anything is allocated.
		length := int64(binary.LittleEndian.Uint32(header[:4]))
		if length == 0 || length > min(1<<30, size-valid-FrameHeader) {
			return valid, nil
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(br, payload); err != nil {
			return valid, fmt.Errorf("durable: read: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) || fn(payload) != nil {
			return valid, nil
		}
		valid += FrameHeader + length
	}
	return valid, nil
}

// Replace durably replaces the file name with data: a crash leaves the
// old file or the new one, and once Replace returns, the new one.
func Replace(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err = f.WriteAt(data, 0); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp, name)
	}
	if err == nil {
		err = fsys.SyncDir(filepath.Dir(name))
	}
	return err
}

// ReadFile returns the contents of the file name.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, size, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	data := make([]byte, size)
	if _, err := f.ReadAt(data, 0); err != nil && !errors.Is(err, io.EOF) {
		return nil, err
	}
	return data, nil
}

// Create creates the file name, empty, and fsyncs its directory so the
// new entry survives a crash.
func Create(fsys FS, name string) (File, error) {
	f, err := fsys.Create(name)
	if err != nil {
		return nil, err
	}
	if err := fsys.SyncDir(filepath.Dir(name)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// MkdirAll creates dir and its parents and fsyncs dir's parent.
func MkdirAll(fsys FS, dir string) error {
	if err := fsys.MkdirAll(dir); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(dir))
}
