package wal

import (
	"errors"
	"os"
	"sync"
	"syscall"
	"testing"
)

// errInjected is the error of an operation a test armed to fail; a failed
// write returns syscall.ENOSPC instead.
var errInjected = errors.New("injected fault")

// errCrashed is the error of every landing operation after crash.
var errCrashed = errors.New("crashed")

// faultFS is the real file system under a test's control: it fails the
// n-th operation of a kind, and it crashes. Reads (Open, ReadDir, Stat)
// and MkdirAll always pass through.
type faultFS struct {
	osFS
	mu      sync.Mutex
	ops     map[string]int // operations of each kind so far
	failAt  map[string]int // the operation of each kind that fails
	crashed bool
}

func newFaultFS() *faultFS {
	return &faultFS{ops: map[string]int{}, failAt: map[string]int{}}
}

// failNth fails the n-th operation of kind from now on: "create", "write",
// "sync", "rename", "remove" or "syncdir". A failed write is short: it
// lands the first half of its bytes and returns ENOSPC. A failed sync
// truncates the file to its length at its last good sync, as a kernel
// that dropped the dirty pages leaves it.
func (f *faultFS) failNth(kind string, n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failAt[kind] = f.ops[kind] + n
}

// crash is a SIGKILL: every later write, sync, create, rename and remove
// fails and lands nothing. Bytes already written stay, and what a
// process held in memory only is lost.
func (f *faultFS) crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// fault counts one operation of kind and returns its failure, if any.
func (f *faultFS) fault(kind string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return errCrashed
	}
	f.ops[kind]++
	if f.ops[kind] == f.failAt[kind] {
		return errInjected
	}
	return nil
}

func (f *faultFS) OpenFile(name string, flag int) (file, error) {
	if err := f.fault("create"); err != nil {
		return nil, err
	}
	of, err := f.osFS.OpenFile(name, flag)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: of.(*os.File)}, nil
}

func (f *faultFS) Remove(name string) error {
	if err := f.fault("remove"); err != nil {
		return err
	}
	return f.osFS.Remove(name)
}

func (f *faultFS) Rename(from, to string) error {
	if err := f.fault("rename"); err != nil {
		return err
	}
	return f.osFS.Rename(from, to)
}

func (f *faultFS) SyncDir(dir string) error {
	if err := f.fault("syncdir"); err != nil {
		return err
	}
	return f.osFS.SyncDir(dir)
}

// faultFile is a file a faultFS opened for writing.
type faultFile struct {
	fs           *faultFS
	f            *os.File
	size, synced int64 // bytes written, and written at the last good sync
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.fault("write"); err != nil {
		if errors.Is(err, errCrashed) {
			return 0, err
		}
		n, _ := w.f.Write(p[:len(p)/2])
		w.size += int64(n)
		return n, syscall.ENOSPC
	}
	n, err := w.f.Write(p)
	w.size += int64(n)
	return n, err
}

func (w *faultFile) Sync() error {
	if err := w.fs.fault("sync"); err != nil {
		if errors.Is(err, errInjected) {
			if terr := w.f.Truncate(w.synced); terr != nil {
				return terr
			}
		}
		return err
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.synced = w.size
	return nil
}

func (w *faultFile) Close() error { return w.f.Close() }

// crash kills d as a SIGKILL would: its faultFS (d was opened with one)
// lands nothing from now on, so the records d held in memory are lost and
// every byte it wrote stays. The dead Durable is closed when the test
// ends, which lands nothing either.
func crash(t *testing.T, d *Durable) {
	t.Helper()
	d.opts.fs.(*faultFS).crash()
	t.Cleanup(func() { _ = d.Close() })
}
