package chaos

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestVerdictDrawIsDeterministic locks the per-site splitmix64 draw a
// firing carries (where a torn write is cut): two controllers with the
// same seed, armed through ArmAt, draw the same Verdict.Rand at each
// site, and a different seed draws differently somewhere across the
// site set.
func TestVerdictDrawIsDeterministic(t *testing.T) {
	t.Parallel()
	draw := func(seed int64, site string) uint64 {
		c := New(seed)
		c.ArmAt(site, 3, Fail)
		for i := 1; i <= 3; i++ {
			if v := c.Hit(site); v.Fired {
				if i != 3 {
					t.Fatalf("site %s: fault armed for hit 3 fired on hit %d", site, i)
				}
				return v.Rand
			}
		}
		t.Fatalf("site %s: fault armed for hit 3 never fired", site)
		return 0
	}
	sites := []string{SiteWrite, SiteRename, SiteSync, "fleet.job.crash"}
	diverged := false
	for _, site := range sites {
		if a, b := draw(42, site), draw(42, site); a != b {
			t.Fatalf("site %s: same seed drew %#x vs %#x", site, a, b)
		}
		if draw(43, site) != draw(42, site) {
			diverged = true
		}
	}
	if !diverged {
		t.Fatal("seeds 42 and 43 drew identically at every site")
	}
}

// TestCrashLatchesEverything: after a Crash fault fires, every
// operation at every site — including ones never armed — fails with
// ErrKilled until the controller is discarded.
func TestCrashLatchesEverything(t *testing.T) {
	t.Parallel()
	c := New(7)
	c.ArmAt(SiteRename, 2, Crash)
	if c.Hit(SiteRename).Fired {
		t.Fatal("fault fired on hit 1, armed for hit 2")
	}
	v := c.Hit(SiteRename)
	if !v.Fired || v.Kind != Crash || !c.Killed() {
		t.Fatalf("hit 2 verdict %+v, killed=%v", v, c.Killed())
	}
	for _, site := range []string{SiteWrite, SiteRead, "never.armed"} {
		if err := c.Hit(site).Err(site); !IsKilled(err) {
			t.Fatalf("site %s after crash: err = %v, want ErrKilled", site, err)
		}
	}
	if got := c.Fired(SiteRename); got != 1 {
		t.Fatalf("Fired(%s) = %d, want 1", SiteRename, got)
	}
}

// TestNilControllerIsInert: a nil controller — what chaos.OS carries
// — never fires, never latches, and counts nothing, so production code
// can thread an optional controller without guards.
func TestNilControllerIsInert(t *testing.T) {
	t.Parallel()
	var c *Controller
	for _, site := range []string{SiteWrite, SiteRename, "fleet.job.crash"} {
		if v := c.Hit(site); v != (Verdict{}) {
			t.Fatalf("nil controller fired at %s: %+v", site, v)
		}
		if err := c.Hit(site).Err(site); err != nil {
			t.Fatalf("nil controller verdict error at %s: %v", site, err)
		}
	}
	if c.Killed() || c.Fired(SiteWrite) != 0 || c.Hits(SiteWrite) != 0 {
		t.Fatal("nil controller reports state")
	}
}

// TestFSShortWriteLeavesPrefix locks the torn-write model: the fault
// leaves a strict prefix of the data on disk and reports the injected
// error (Fail) or the latched kill (Crash).
func TestFSShortWriteLeavesPrefix(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := []byte(`{"id":"run-000001","status":"queued"}` + "\n")

	c := New(21)
	c.ArmAt(SiteWriteShort, 1, Fail)
	f := BindFS(c)
	path := filepath.Join(dir, "short.json")
	err := f.WriteFile(path, data, 0o644)
	if !errors.Is(err, ErrNoSpace) {
		t.Fatalf("short write err = %v, want ErrNoSpace", err)
	}
	got, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("torn file unreadable: %v", readErr)
	}
	if len(got) >= len(data) || string(got) != string(data[:len(got)]) {
		t.Fatalf("torn file holds %q (%d bytes), want a strict prefix of %d bytes", got, len(got), len(data))
	}

	c2 := New(21)
	c2.ArmAt(SiteWriteShort, 1, Crash)
	f2 := BindFS(c2)
	path2 := filepath.Join(dir, "crash.json")
	if err := f2.WriteFile(path2, data, 0o644); !IsKilled(err) {
		t.Fatalf("crash short write err = %v, want ErrKilled", err)
	}
	if _, err := f2.ReadFile(path2); !IsKilled(err) {
		t.Fatalf("read after crash = %v, want ErrKilled", err)
	}
	// Same seed → same cut point: the two torn files are identical.
	got2, _ := os.ReadFile(path2)
	if string(got2) != string(got) {
		t.Fatalf("cut points diverged for one seed: %q vs %q", got, got2)
	}
}

// TestFSFaultsPerSite: ENOSPC on write, injected failures on sync,
// rename, and remove — each surfacing at its own site, each leaving
// the process alive.
func TestFSFaultsPerSite(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	data := []byte("payload\n")

	c := New(5)
	c.ArmAt(SiteWrite, 1, Fail)
	f := BindFS(c)
	path := filepath.Join(dir, "a")
	if err := f.WriteFile(path, data, 0o644); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("write fault = %v, want ErrNoSpace", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("failed write left a file behind")
	}
	// Disarmed afterwards: the same operations succeed.
	if err := f.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("write after one-shot fault: %v", err)
	}

	c.ArmAt(SiteSync, 1, Fail)
	if err := f.Sync(path); !errors.Is(err, ErrInjected) {
		t.Fatalf("sync fault = %v", err)
	}
	if err := f.Sync(path); err != nil {
		t.Fatalf("sync after fault: %v", err)
	}

	c.ArmAt(SiteRename, 1, Fail)
	if err := f.Rename(path, path+".new"); !errors.Is(err, ErrInjected) {
		t.Fatalf("rename fault = %v", err)
	}
	if err := f.Rename(path, path+".new"); err != nil {
		t.Fatalf("rename after fault: %v", err)
	}

	c.ArmAt(SiteRemove, 1, Fail)
	if err := f.Remove(path + ".new"); !errors.Is(err, ErrInjected) {
		t.Fatalf("remove fault = %v", err)
	}
	if err := f.Remove(path + ".new"); err != nil {
		t.Fatalf("remove after fault: %v", err)
	}
}

// TestSitesEnumeratesStoreSites: StoreSites names exactly the sites
// the instrumented filesystem crosses — every one is hit by some FS
// operation, so the recovery matrix sweeping StoreSites misses none.
func TestSitesEnumeratesStoreSites(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	c := New(1)
	f := BindFS(c)
	path := filepath.Join(dir, "a")
	steps := []error{
		f.MkdirAll(dir, 0o755),
		f.WriteFile(path, []byte("x"), 0o644),
		f.Sync(path),
		f.Rename(path, path+".b"),
		f.SyncDir(dir),
		func() error { _, err := f.ReadFile(path + ".b"); return err }(),
		func() error { _, err := f.ReadDir(dir); return err }(),
		f.Remove(path + ".b"),
	}
	for i, err := range steps {
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	seen := make(map[string]bool)
	for _, site := range StoreSites {
		if seen[site] {
			t.Fatalf("site %s listed twice", site)
		}
		seen[site] = true
		if c.Hits(site) == 0 {
			t.Errorf("site %s is never crossed by the filesystem", site)
		}
	}
}
