// Package durable is the crash-consistent on-disk generation archive
// behind the snapshot store's -data-dir mode: every committed
// generation is serialized to a content-checksummed segment file and
// recorded in an append-only manifest, so a restarted process adopts
// its last verified generation for immediate warm-start serving instead
// of paying a cold pipeline rebuild.
//
// The write-path ordering is the whole durability argument:
//
//  1. the segment is written to a temporary name and fsynced — its
//     bytes are durable but unreachable by recovery;
//  2. the temporary is atomically renamed to its final name and the
//     directory is fsynced — the segment is durable and named;
//  3. only then is the commit record appended (and fsynced) to the
//     manifest.
//
// A crash between any two steps leaves either an ignorable orphan (the
// manifest never references it) or a fully durable segment; the
// manifest never references bytes that are not already on disk in
// full. Every record and every segment carries a SHA-256 checksum in
// the internal/sched fingerprint discipline, so recovery can verify
// everything it adopts and quarantine — with a structured reason,
// never a panic — everything it cannot.
//
// All filesystem access goes through the FS seam below; tests drive
// the archive over an in-memory filesystem that models fsync-aware
// crash semantics and injects torn writes, bit flips, ENOSPC and
// crash-at-every-op fault points deterministically.
package durable

import (
	"io"
	"os"
)

// FS is the filesystem seam the archive writes and recovers through.
// The methods are deliberately primitive — one durability-relevant
// operation each — so fault injection can kill the process between any
// two steps of the write path.
type FS interface {
	// MkdirAll creates the directory (and parents) if missing.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (FileWriter, error)
	// OpenAppend opens name for appending, creating it if missing.
	OpenAppend(name string) (FileWriter, error)
	// Rename atomically replaces newname with oldname's file. The
	// rename is durable only after SyncDir on the containing directory.
	Rename(oldname, newname string) error
	// Remove deletes a file (not an error if it is already gone).
	Remove(name string) error
	// SyncDir fsyncs a directory, making completed creates, renames and
	// removes in it crash-durable.
	SyncDir(dir string) error
	// ReadFile returns the file's full contents.
	ReadFile(name string) ([]byte, error)
}

// FileWriter is an open file on the write path.
type FileWriter interface {
	io.Writer
	// Sync fsyncs the file: everything written so far survives a crash.
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
type OSFS struct{}

// MkdirAll implements FS via os.MkdirAll.
func (OSFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

// Create implements FS via os.Create.
func (OSFS) Create(name string) (FileWriter, error) { return os.Create(name) }

// OpenAppend implements FS via os.OpenFile in append mode.
func (OSFS) OpenAppend(name string) (FileWriter, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

// Rename implements FS via os.Rename.
func (OSFS) Rename(oldname, newname string) error { return os.Rename(oldname, newname) }

// Remove implements FS via os.Remove, tolerating a missing file.
func (OSFS) Remove(name string) error {
	err := os.Remove(name)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// SyncDir implements FS by fsyncing the directory, best-effort.
func (OSFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories (EINVAL). That
	// weakens durability of the newest name, not recovery correctness —
	// an unnamed segment is an ignorable orphan — so it is best-effort.
	_ = d.Sync()
	return nil
}

// ReadFile implements FS via os.ReadFile.
func (OSFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
