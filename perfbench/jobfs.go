package main

import (
	"io/fs"
	"sync"
	"time"

	"uptimebroker/internal/faultfs"
)

// countingFS wraps the job store's filesystem and counts what the
// store asks of it: writes, bytes written, syncs and time spent in
// sync. It times only the calls it forwards.
type countingFS struct {
	faultfs.FS
	mu       sync.Mutex
	writes   int64
	bytes    int64
	syncs    int64
	syncTime time.Duration
}

type countingFile struct {
	faultfs.File
	fs *countingFS
}

func (c *countingFS) wrap(f faultfs.File, err error) (faultfs.File, error) {
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, fs: c}, nil
}

func (c *countingFS) OpenFile(name string, flag int, perm fs.FileMode) (faultfs.File, error) {
	return c.wrap(c.FS.OpenFile(name, flag, perm))
}

func (c *countingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	return c.wrap(c.FS.CreateTemp(dir, pattern))
}

func (c *countingFS) SyncDir(path string) error {
	start := time.Now()
	err := c.FS.SyncDir(path)
	c.synced(time.Since(start))
	return err
}

func (c *countingFS) synced(d time.Duration) {
	c.mu.Lock()
	c.syncs++
	c.syncTime += d
	c.mu.Unlock()
}

func (f countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.mu.Lock()
	f.fs.writes++
	f.fs.bytes += int64(n)
	f.fs.mu.Unlock()
	return n, err
}

func (f countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.synced(time.Since(start))
	return err
}

func (c *countingFS) snapshot() (writes, bytes, syncs int64, syncTime time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.bytes, c.syncs, c.syncTime
}
