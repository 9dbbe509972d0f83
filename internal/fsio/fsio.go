// Package fsio is the filesystem seam of the persistence layers. The
// segment logs (internal/seglog under internal/journal and
// internal/jobstore), the packed trace files (internal/trace) and the warm
// snapshots (internal/warm) never call the os package directly; they go
// through the FS interface, whose production implementation (OS) is a thin
// veneer over the real filesystem and whose test implementation (Injector)
// injects deterministic, seeded storage faults — ENOSPC, EIO, short
// writes, torn renames, silent post-write bit flips — underneath
// unmodified production code.
//
// The seam covers exactly the operations the persistence layers perform:
// open for read, create-temp for the atomic tmp+fsync+rename pattern,
// rename, remove, mkdir, readdir, stat, truncate, and the per-file
// read/write/sync/close quartet. Nothing else belongs here: code that
// needs more of the os package is not a persistence layer.
//
// The package depends only on the standard library, so every layer of the
// pipeline can import it without cycles.
package fsio

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
)

// File is the per-handle surface the persistence layers use: sequential
// reads and writes, durability (Sync), and the handle's path for the
// tmp+rename pattern.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's data to stable storage (fsync).
	Sync() error
	// Name returns the path the file was opened or created with.
	Name() string
}

// FS is the filesystem seam. All methods mirror their os counterparts,
// including error conventions (*fs.PathError, *os.LinkError wrapping).
type FS interface {
	// Open opens the named file (or directory — directories are opened to
	// fsync the parent after a rename) for reading.
	Open(name string) (File, error)
	// CreateTemp creates a new temporary file in dir, opened for writing,
	// with a name built from pattern — the first half of the atomic
	// tmp+fsync+rename publish.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm os.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// Stat describes a file.
	Stat(name string) (os.FileInfo, error)
	// Truncate cuts the named file to size bytes.
	Truncate(name string, size int64) error
}

// OS is the production filesystem: every call forwards to the os package.
var OS FS = osFS{}

// osFS implements FS on the real filesystem.
type osFS struct{}

func (osFS) Open(name string) (File, error) {
	return os.Open(name)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

func (osFS) Stat(name string) (os.FileInfo, error) { return os.Stat(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

// SyncDir fsyncs a directory through fs, persisting directory entries
// (renames, new files) on filesystems that require an explicit parent
// fsync for them to survive a crash. Failures are reported, not fatal:
// every caller treats the parent fsync as best-effort hardening.
func SyncDir(fs FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// Publish writes path atomically: write fills a temp file created next to
// path from pattern, which is fsync'd, closed and renamed onto path, then
// the parent directory is fsync'd best-effort so the rename itself
// survives a crash. A failure at any step removes the temp file and leaves
// path untouched, so no reader ever trusts a torn file.
func Publish(fs FS, path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := fs.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	if err = write(tmp); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp.Name(), path)
	}
	if err != nil {
		_ = fs.Remove(tmp.Name())
		return err
	}
	_ = SyncDir(fs, dir)
	return nil
}

// Seam is a swappable FS: the package-global hook behind each persistence
// layer's SetFS, so the chaos campaigns can drive a whole sweep through an
// *Injector without plumbing an FS through every layer. The zero value
// routes to OS. Safe for concurrent use.
type Seam struct{ fs atomic.Pointer[FS] }

// Set overrides the filesystem; nil restores OS.
func (s *Seam) Set(fs FS) { s.fs.Store(&fs) }

// Get returns the current filesystem.
func (s *Seam) Get() FS {
	if fs := s.fs.Load(); fs != nil && *fs != nil {
		return *fs
	}
	return OS
}

// SafeName maps s onto portable file-name runes: ASCII letters, digits,
// '-' and '_' pass through, every other rune becomes '_'.
func SafeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, s)
}
