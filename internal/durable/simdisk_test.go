package durable

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// diskOp is what a DiskRecord did.
type diskOp uint8

const (
	opCreate diskOp = iota + 1
	opWrite
	opSync
	opTruncate
	opRemove
)

func (op diskOp) String() string {
	return [...]string{"?", "create", "write", "sync", "truncate", "remove"}[op]
}

// DiskRecord is one operation the simulated disk carried out: to which
// file, at what offset, how many bytes. Synced marks a write that a
// later sync of its file made durable; a truncate's Offset is the size
// it left. Creating, truncating and removing a file are durable when
// they return.
type DiskRecord struct {
	Op     diskOp
	File   string
	Offset int64
	Length int64
	Synced bool
}

func (r DiskRecord) String() string {
	return fmt.Sprintf("%s %s @%d+%d synced=%v", r.Op, r.File, r.Offset, r.Length, r.Synced)
}

// simDisk is a fileSystem in memory that records every operation made
// on it. What the process reads is everything written; what a crash
// leaves is what CrashAt materialises.
type simDisk struct {
	mu      sync.Mutex
	files   map[string][]byte
	records []DiskRecord
	written [][]byte // the bytes of records[i], for a write
}

var _ fileSystem = (*simDisk)(nil)

func newSimDisk() *simDisk { return &simDisk{files: make(map[string][]byte)} }

func (d *simDisk) recordLocked(r DiskRecord, b []byte) {
	d.records = append(d.records, r)
	d.written = append(d.written, b)
}

func (d *simDisk) MkdirAll(string) error { return nil }

func (d *simDisk) ReadDir(dir string) ([]fs.DirEntry, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	var out []fs.DirEntry
	for name := range d.files {
		if filepath.Dir(name) == filepath.Clean(dir) {
			out = append(out, simEntry(filepath.Base(name)))
		}
	}
	slices.SortFunc(out, func(a, b fs.DirEntry) int { return cmp.Compare(a.Name(), b.Name()) })
	return out, nil
}

func (d *simDisk) OpenFile(name string, flag int) (file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.files[name]
	switch {
	case ok && flag&os.O_EXCL != 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrExist}
	case !ok && flag&os.O_CREATE == 0:
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	case !ok:
		d.files[name] = []byte{}
		d.recordLocked(DiskRecord{Op: opCreate, File: name}, nil)
	}
	return &simFile{d: d, name: name}, nil
}

func (d *simDisk) Open(name string) (file, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.files[name]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &simFile{d: d, name: name, r: bytes.NewReader(bytes.Clone(b))}, nil
}

func (d *simDisk) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.files[name]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	n := min(size, int64(len(b)))
	d.files[name] = b[:n:n] // a later write must not reach bytes another slice holds
	d.recordLocked(DiskRecord{Op: opTruncate, File: name, Offset: size}, nil)
	return nil
}

func (d *simDisk) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, ok := d.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.files, name)
	d.recordLocked(DiskRecord{Op: opRemove, File: name}, nil)
	return nil
}

// simFile is a handle on one of the disk's files: appending, or reading
// what the file held when it was opened.
type simFile struct {
	d    *simDisk
	name string
	r    *bytes.Reader
}

func (f *simFile) Read(p []byte) (int, error) {
	if f.r == nil {
		return 0, io.ErrUnexpectedEOF
	}
	return f.r.Read(p)
}

func (f *simFile) Write(p []byte) (int, error) {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	b, ok := d.files[f.name]
	if !ok || f.r != nil {
		return 0, &fs.PathError{Op: "write", Path: f.name, Err: fs.ErrInvalid}
	}
	d.files[f.name] = append(b, p...)
	d.recordLocked(DiskRecord{Op: opWrite, File: f.name, Offset: int64(len(b)), Length: int64(len(p))}, bytes.Clone(p))
	return len(p), nil
}

func (f *simFile) Sync() error {
	d := f.d
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range d.records {
		if r := &d.records[i]; r.Op == opWrite && r.File == f.name {
			r.Synced = true
		}
	}
	d.recordLocked(DiskRecord{Op: opSync, File: f.name}, nil)
	return nil
}

func (f *simFile) Close() error { return nil }

// simEntry is a file of a directory listing.
type simEntry string

func (e simEntry) Name() string               { return string(e) }
func (e simEntry) IsDir() bool                { return false }
func (e simEntry) Type() fs.FileMode          { return 0 }
func (e simEntry) Info() (fs.FileInfo, error) { return nil, fs.ErrInvalid }

// crashFile is one file as a crash after some operation finds it: its
// content, of which the first synced bytes were made durable.
type crashFile struct {
	content []byte
	synced  int
}

// stateAt replays the first k records: every file there is after them,
// with what a sync had made durable.
func (d *simDisk) stateAt(k int) map[string]*crashFile {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := make(map[string]*crashFile)
	for i, r := range d.records[:k] {
		switch r.Op {
		case opCreate:
			st[r.File] = &crashFile{}
		case opWrite:
			st[r.File].content = append(st[r.File].content, d.written[i]...)
		case opSync:
			st[r.File].synced = len(st[r.File].content)
		case opTruncate:
			f := st[r.File]
			f.content, f.synced = f.content[:r.Offset], min(f.synced, int(r.Offset))
		case opRemove:
			delete(st, r.File)
		}
	}
	return st
}

// CrashAt materialises the disk as the machine would have left it had
// it stopped after the first k operations: a file keeps what a sync made
// durable, and of the bytes written to it since, the first keep(name,
// tail) — 0 drops them, len(tail) keeps them, anything between tears the
// write it falls in at that byte.
func (d *simDisk) CrashAt(k int, keep func(name string, tail []byte) int) *simDisk {
	out := newSimDisk()
	for name, f := range d.stateAt(k) {
		out.files[name] = bytes.Clone(f.content[:f.synced+keep(name, f.content[f.synced:])])
	}
	return out
}
