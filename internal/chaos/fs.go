package chaos

import (
	"fmt"
	"io/fs"
	"os"
)

// The store.* fault sites: every filesystem operation the labd store
// performs is instrumented at exactly one of these names.
const (
	SiteWrite      = "store.write"       // whole-file write of a .tmp (ENOSPC on Fail, cut-before-write on Crash)
	SiteWriteShort = "store.write.short" // torn write: a deterministic prefix lands, the rest never does
	SiteSync       = "store.sync"        // fsync of a freshly written file
	SiteSyncDir    = "store.syncdir"     // fsync of the store directory after a rename
	SiteRename     = "store.rename"      // the commit rename .tmp → final
	SiteRemove     = "store.remove"      // sweep/cleanup removals
	SiteRead       = "store.read"        // whole-file reads during recovery and serving
	SiteReadDir    = "store.readdir"     // directory listing during recovery
)

// StoreSites lists every store.* fault site — the filesystem half of
// what the kill-point recovery matrix sweeps.
var StoreSites = []string{
	SiteWrite, SiteWriteShort, SiteSync, SiteSyncDir,
	SiteRename, SiteRemove, SiteRead, SiteReadDir,
}

// FS is the narrow filesystem surface the labd store writes through.
// The production implementation is OS (the real filesystem,
// instrumented at the store.* fault sites); chaos tests bind the same
// implementation to a private Controller with BindFS. Sync and SyncDir
// exist as first-class operations because crash durability hinges on
// them: writeAtomic's contract is write → Sync → Rename → SyncDir.
type FS interface {
	// MkdirAll creates a directory tree.
	MkdirAll(dir string, perm os.FileMode) error
	// ReadFile reads a whole file.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// WriteFile writes a whole file.
	WriteFile(name string, data []byte, perm os.FileMode) error
	// Sync fsyncs the named file's contents to stable storage.
	Sync(name string) error
	// SyncDir fsyncs a directory, making its entries (renames,
	// creations) durable.
	SyncDir(dir string) error
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
}

// OS is the real filesystem with no controller bound: its fault sites
// never fire.
var OS FS = fsys{}

// BindFS returns the real filesystem instrumented against c — what the
// chaos tests inject into the store.
func BindFS(c *Controller) FS { return fsys{c: c} }

// fsys implements FS over the os package, consulting its bound
// controller (nil: inert) at each fault site.
type fsys struct{ c *Controller }

func (f fsys) MkdirAll(dir string, perm os.FileMode) error {
	// Not a fault site — it runs once at store open — but a dead
	// process must not create directories either.
	if f.c.Killed() {
		return ErrKilled
	}
	return os.MkdirAll(dir, perm)
}

func (f fsys) ReadFile(name string) ([]byte, error) {
	if err := f.c.Hit(SiteRead).Err("read " + name); err != nil {
		return nil, err
	}
	return os.ReadFile(name)
}

func (f fsys) ReadDir(dir string) ([]fs.DirEntry, error) {
	if err := f.c.Hit(SiteReadDir).Err("readdir " + dir); err != nil {
		return nil, err
	}
	return os.ReadDir(dir)
}

func (f fsys) WriteFile(name string, data []byte, perm os.FileMode) error {
	if v := f.c.Hit(SiteWriteShort); v.Fired {
		// The torn write: a deterministic prefix reaches the file, the
		// rest never does. On Crash the process dies mid-write; on Fail
		// it lives to observe a short-write error (ENOSPC mid-file).
		n := 0
		if len(data) > 0 {
			n = int(v.Rand % uint64(len(data)))
		}
		_ = os.WriteFile(name, data[:n], perm)
		if v.Kind == Crash {
			return ErrKilled
		}
		return fmt.Errorf("chaos: short write %s (%d of %d bytes): %w", name, n, len(data), ErrNoSpace)
	}
	if v := f.c.Hit(SiteWrite); v.Fired {
		if v.Kind == Crash {
			// Cut before any byte lands: the file is never created.
			return ErrKilled
		}
		return fmt.Errorf("chaos: write %s: %w", name, ErrNoSpace)
	}
	return os.WriteFile(name, data, perm)
}

func (f fsys) Sync(name string) error {
	if err := f.c.Hit(SiteSync).Err("fsync " + name); err != nil {
		return err
	}
	return syncPath(name)
}

func (f fsys) SyncDir(dir string) error {
	if err := f.c.Hit(SiteSyncDir).Err("fsync dir " + dir); err != nil {
		return err
	}
	return syncPath(dir)
}

func (f fsys) Rename(oldpath, newpath string) error {
	if err := f.c.Hit(SiteRename).Err("rename " + oldpath); err != nil {
		return err
	}
	return os.Rename(oldpath, newpath)
}

func (f fsys) Remove(name string) error {
	if err := f.c.Hit(SiteRemove).Err("remove " + name); err != nil {
		return err
	}
	return os.Remove(name)
}

// syncPath fsyncs a file or directory by path. Opening read-only is
// sufficient for fsync on the platforms the lab targets.
func syncPath(path string) error {
	fd, err := os.Open(path)
	if err != nil {
		return err
	}
	defer fd.Close()
	return fd.Sync()
}
