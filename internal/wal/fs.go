// The package's one door to the disk.

package wal

import (
	"io"
	"io/fs"
	"os"
)

// fileSystem is every disk operation of this package: osFS in production,
// a test's fake through Options.fs. OpenFile creates or opens name
// write-only (flag adds os.O_EXCL or os.O_TRUNC); SyncDir fsyncs dir so a
// rename in it is durable.
type fileSystem interface {
	OpenFile(name string, flag int) (file, error)
	Open(name string) (io.ReadCloser, error)
	ReadDir(dir string) ([]fs.DirEntry, error)
	Stat(name string) (fs.FileInfo, error)
	Remove(name string) error
	Rename(from, to string) error
	MkdirAll(dir string) error
	SyncDir(dir string) error
}

// file is a segment or snapshot file open for writing.
type file interface {
	io.Writer
	Sync() error
	Close() error
}

// osFS is the operating system's file system. A failed open returns a nil
// *os.File in the interface: callers test the error first.
type osFS struct{}

func (osFS) OpenFile(name string, flag int) (file, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|flag, 0o644)
}
func (osFS) Open(name string) (io.ReadCloser, error)   { return os.Open(name) }
func (osFS) ReadDir(dir string) ([]fs.DirEntry, error) { return os.ReadDir(dir) }
func (osFS) Stat(name string) (fs.FileInfo, error)     { return os.Stat(name) }
func (osFS) Remove(name string) error                  { return os.Remove(name) }
func (osFS) Rename(from, to string) error              { return os.Rename(from, to) }
func (osFS) MkdirAll(dir string) error                 { return os.MkdirAll(dir, 0o755) }

func (osFS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
