package durable

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
)

// MemFS is a deterministic in-memory filesystem that models the crash
// semantics the archive's durability argument depends on:
//
//   - file bytes written since the last Sync may be lost, or survive
//     only as an arbitrary prefix (a torn write);
//   - namespace operations (Create, Rename, Remove) are atomic for the
//     running process but crash-durable only after SyncDir — a crash
//     before the directory sync rolls the name back, so a renamed
//     segment reappears under its temporary name.
//
// Crash materializes those semantics: it discards everything volatile
// and leaves the filesystem as a restarted process would find it. Tests
// wrap MemFS in FaultFS to stop the process at every individual
// operation and then Crash the survivor state.
type MemFS struct {
	mu sync.Mutex
	// live is the namespace the running process sees; stable is the
	// crash-durable namespace (what SyncDir has committed). Both map
	// names to shared inodes.
	live   map[string]*inode
	stable map[string]*inode
	dirs   map[string]bool
}

// inode is one file's content. data is what the running process reads;
// synced is the length of the prefix guaranteed to survive a crash.
type inode struct {
	data   []byte
	synced int
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{live: map[string]*inode{}, stable: map[string]*inode{}, dirs: map[string]bool{}}
}

// MkdirAll implements FS; directories are only names here.
func (m *MemFS) MkdirAll(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.dirs[dir] = true
	return nil
}

// Create implements FS: a fresh inode replaces any existing file.
func (m *MemFS) Create(name string) (FileWriter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := &inode{}
	m.live[name] = ino
	return &memFile{fs: m, ino: ino}, nil
}

// OpenAppend implements FS, creating the file if missing.
func (m *MemFS) OpenAppend(name string) (FileWriter, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.live[name]
	if ino == nil {
		ino = &inode{}
		m.live[name] = ino
	}
	return &memFile{fs: m, ino: ino}, nil
}

// Rename implements FS: atomic in the live namespace, durable only
// after SyncDir.
func (m *MemFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.live[oldname]
	if ino == nil {
		return &os.PathError{Op: "rename", Path: oldname, Err: os.ErrNotExist}
	}
	delete(m.live, oldname)
	m.live[newname] = ino
	return nil
}

// Remove implements FS in the live namespace.
func (m *MemFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.live, name)
	return nil
}

// SyncDir commits the live namespace of dir to the crash-durable one.
func (m *MemFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.stable {
		if inDir(name, dir) {
			delete(m.stable, name)
		}
	}
	for name, ino := range m.live {
		if inDir(name, dir) {
			m.stable[name] = ino
		}
	}
	return nil
}

// ReadFile implements FS from the live namespace.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.live[name]
	if ino == nil {
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrNotExist}
	}
	return append([]byte(nil), ino.data...), nil
}

// Crash simulates a process kill plus restart: the namespace reverts to
// the last SyncDir, and every inode's unsynced suffix is truncated to a
// fraction tornKeep of its length (0 = unsynced bytes vanish, 1 = the
// write happened to hit the platter in full; anything between is a torn
// write). Deterministic: the same op sequence and tornKeep always
// yields the same survivor state.
func (m *MemFS) Crash(tornKeep float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	seen := map[*inode]bool{}
	m.live = map[string]*inode{}
	for name, ino := range m.stable {
		if !seen[ino] {
			seen[ino] = true
			if unsynced := len(ino.data) - ino.synced; unsynced > 0 {
				keep := ino.synced + int(tornKeep*float64(unsynced))
				ino.data = ino.data[:keep]
			}
			ino.synced = len(ino.data)
		}
		m.live[name] = ino
	}
}

// FlipBit flips one bit of the named file in place — the corruption
// sweep's primitive. Reports false when the file or offset is absent.
func (m *MemFS) FlipBit(name string, offset int, mask byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.live[name]
	if ino == nil || offset < 0 || offset >= len(ino.data) {
		return false
	}
	ino.data[offset] ^= mask
	return true
}

// FileLen reports the named file's current length (-1 when absent).
func (m *MemFS) FileLen(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	ino := m.live[name]
	if ino == nil {
		return -1
	}
	return len(ino.data)
}

// memFile is an open MemFS file.
type memFile struct {
	fs  *MemFS
	ino *inode
}

// Write appends to the inode; the bytes are volatile until Sync.
func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.data = append(f.ino.data, p...)
	return len(p), nil
}

// Sync marks everything written so far as crash-durable.
func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.ino.synced = len(f.ino.data)
	return nil
}

// Close is a no-op: this model flushes on Sync only.
func (f *memFile) Close() error { return nil }

func inDir(name, dir string) bool { return strings.HasPrefix(name, dir+"/") }

func baseName(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// ErrCrashed is what FaultFS returns from every operation at and after
// its crash point: the process is dead, nothing more happens.
var ErrCrashed = errors.New("durable: simulated crash")

// ErrInjected is the transient disk fault (ENOSPC-style) FaultFS
// injects at a single operation.
var ErrInjected = errors.New("durable: injected disk fault (no space left on device)")

// FaultFS wraps an FS and counts every mutating operation, turning each
// one into an injectable fault point:
//
//   - CrashAt k: operation k and everything after it fails with
//     ErrCrashed — the process died mid-write. The test then calls
//     MemFS.Crash to materialize what survives and recovers over it.
//   - FailAt k: operation k alone fails with ErrInjected (ENOSPC, a
//     transient write error); later operations succeed. The archive
//     must degrade, not corrupt.
//
// Operation indexes are deterministic: the same archive call sequence
// numbers its operations identically on every run, so "crash at op k"
// names one exact point in the write path. Read operations are never
// counted — they inject nothing and keep recovery deterministic.
type FaultFS struct {
	FS
	mu      sync.Mutex
	ops     int
	CrashAt int // -1 = never
	FailAt  int // -1 = never
}

// NewFaultFS wraps fs with no faults armed.
func NewFaultFS(fs FS) *FaultFS { return &FaultFS{FS: fs, CrashAt: -1, FailAt: -1} }

// Ops reports how many mutating operations have run.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// SetCrashAt arms (or, with k < 0, disarms) the crash point under the
// counter's lock — safe to call between operations of a filesystem
// other goroutines also write through, which is how the fleet tests
// kill one shard's disk mid-run.
func (f *FaultFS) SetCrashAt(k int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.CrashAt = k
}

// step assigns the next operation index and returns the injected error,
// if any.
func (f *FaultFS) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	op := f.ops
	f.ops++
	if f.CrashAt >= 0 && op >= f.CrashAt {
		return fmt.Errorf("op %d: %w", op, ErrCrashed)
	}
	if op == f.FailAt {
		return fmt.Errorf("op %d: %w", op, ErrInjected)
	}
	return nil
}

// MkdirAll counts one fault point, then delegates.
func (f *FaultFS) MkdirAll(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.MkdirAll(dir)
}

// Create counts one fault point, then delegates; the returned file's
// Write and Sync count their own.
func (f *FaultFS) Create(name string) (FileWriter, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	w, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, w: w}, nil
}

// OpenAppend counts one fault point, then delegates; the returned
// file's Write and Sync count their own.
func (f *FaultFS) OpenAppend(name string) (FileWriter, error) {
	if err := f.step(); err != nil {
		return nil, err
	}
	w, err := f.FS.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, w: w}, nil
}

// Rename counts one fault point, then delegates.
func (f *FaultFS) Rename(oldname, newname string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.Rename(oldname, newname)
}

// Remove counts one fault point, then delegates.
func (f *FaultFS) Remove(name string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.Remove(name)
}

// SyncDir counts one fault point, then delegates.
func (f *FaultFS) SyncDir(dir string) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.FS.SyncDir(dir)
}

// faultFile routes a file's Write and Sync through the op counter.
// Close is free: it flushes nothing in this model.
type faultFile struct {
	fs *FaultFS
	w  FileWriter
}

// Write counts one fault point, then delegates.
func (ff *faultFile) Write(p []byte) (int, error) {
	if err := ff.fs.step(); err != nil {
		return 0, err
	}
	return ff.w.Write(p)
}

// Sync counts one fault point, then delegates.
func (ff *faultFile) Sync() error {
	if err := ff.fs.step(); err != nil {
		return err
	}
	return ff.w.Sync()
}

// Close delegates without counting: closing flushes nothing here.
func (ff *faultFile) Close() error { return ff.w.Close() }
