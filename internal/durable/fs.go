package durable

import (
	"io"
	"io/fs"
	"os"
)

// fileSystem is the seam between the segment logs and what holds their
// bytes: the few operations a log makes. osFS is the disk; discardFS
// keeps nothing, for a log nothing will reopen; the tests add a disk
// that records every operation and can be crashed after any of them.
type fileSystem interface {
	MkdirAll(dir string) error
	ReadDir(dir string) ([]fs.DirEntry, error)
	// OpenFile opens for appending (os.O_WRONLY|os.O_APPEND, and
	// os.O_CREATE|os.O_EXCL for a new segment), Open for reading.
	OpenFile(name string, flag int) (file, error)
	Open(name string) (file, error)
	Truncate(name string, size int64) error
	Remove(name string) error
}

// file is an open segment file.
type file interface {
	io.ReadWriteCloser
	Sync() error
}

// osFS is the fileSystem of the operating system.
type osFS struct{}

func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Truncate(name string, size int64) error    { return os.Truncate(name, size) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }

func (osFS) OpenFile(name string, flag int) (file, error) {
	return osFile(os.OpenFile(name, flag, 0o644))
}
func (osFS) Open(name string) (file, error) { return osFile(os.Open(name)) }

// osFile returns f as a file, and no typed nil in the interface.
func osFile(f *os.File, err error) (file, error) {
	if err != nil {
		return nil, err
	}
	return f, nil
}

// discardFS is the fileSystem of a log that lives as long as its
// process: a certified class of a domain without a durability
// directory. It takes every write and keeps none of it, so a log over
// it holds what its owner holds in memory and nothing else; the log's
// counters still count what was written. There is nothing to read back.
type discardFS struct{}

func (discardFS) MkdirAll(string) error                 { return nil }
func (discardFS) ReadDir(string) ([]fs.DirEntry, error) { return nil, nil }
func (discardFS) OpenFile(string, int) (file, error)    { return discardFile{}, nil }
func (discardFS) Open(name string) (file, error) {
	return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
}
func (discardFS) Truncate(string, int64) error  { return nil }
func (discardFS) Remove(string) error           { return nil }
func (discardFile) Write(p []byte) (int, error) { return len(p), nil }
func (discardFile) Read([]byte) (int, error)    { return 0, io.EOF }
func (discardFile) Sync() error                 { return nil }
func (discardFile) Close() error                { return nil }

type discardFile struct{}
