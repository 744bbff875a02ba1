// Package chaos is the deterministic process/storage fault-point
// framework: named fault sites threaded through the daemon's storage
// and fleet paths, each armed to fire on one exact crossing, inert
// when no controller is injected.
//
// A fault site is a string naming one place the code can fail
// ("store.rename", "fleet.job.crash"). Instrumented code asks its
// injected Controller for a verdict every time execution crosses a
// site, and the Controller decides, from the site's hit count alone,
// whether a fault fires there. A nil Controller never fires, so
// production code threads one through unconditionally. Two fault kinds
// exist:
//
//   - Fail: the operation fails cleanly (an injected error such as
//     ENOSPC or a short write) and the process lives.
//   - Crash: the operation is cut mid-flight (partial effects allowed,
//     e.g. a torn write) and the process is dead — the Controller
//     latches Killed and every subsequent instrumented operation fails
//     with ErrKilled, the in-process stand-in for kill -9. A test then
//     "reboots" by discarding the dead server and opening a fresh one
//     over the surviving on-disk state.
//
// Determinism is the whole point: a Controller's decisions are a pure
// function of (site, hit count), and the draw a firing carries (where
// a torn write is cut) of (seed, site). The same arming against the
// same operation sequence kills the same operation the same way, so
// every cell of the kill-point recovery matrix is reproducible.
package chaos

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"masterparasite/internal/runner"
)

// Kind classifies what an armed fault does to the operation it fires on.
type Kind int

const (
	// Fail makes the operation return an injected error; the process
	// survives and may retry or surface the failure.
	Fail Kind = iota
	// Crash cuts the operation mid-flight and latches the Controller
	// killed: partial effects may remain (a torn file, a missing
	// rename) and every later instrumented operation fails with
	// ErrKilled until the "process" is restarted over the debris.
	Crash
)

func (k Kind) String() string {
	if k == Crash {
		return "crash"
	}
	return "fail"
}

// Sentinel errors injected faults are built from; callers classify
// with errors.Is.
var (
	// ErrInjected marks any error manufactured by this package.
	ErrInjected = errors.New("injected fault")
	// ErrNoSpace is the injected ENOSPC analogue for write faults.
	ErrNoSpace = fmt.Errorf("%w: no space left on device", ErrInjected)
	// ErrKilled is what every instrumented operation returns once a
	// Crash fault has latched — the process is dead and nothing it
	// attempts afterwards reaches the disk.
	ErrKilled = fmt.Errorf("%w: process killed", ErrInjected)
)

// IsKilled reports whether err came from a latched Crash fault.
func IsKilled(err error) bool { return errors.Is(err, ErrKilled) }

// Verdict is a Controller's decision at one site crossing.
type Verdict struct {
	// Fired reports whether a fault fires on this hit.
	Fired bool
	// Kind is the armed fault's kind (meaningful only when Fired).
	Kind Kind
	// Rand is a deterministic per-firing draw instrumented code uses
	// for fault-specific effects (e.g. where to cut a short write).
	Rand uint64
}

// Err renders the verdict as the error the instrumented operation
// should return: nil when nothing fired, ErrKilled for a crash, and an
// ErrInjected-wrapped failure naming op otherwise.
func (v Verdict) Err(op string) error {
	if !v.Fired {
		return nil
	}
	if v.Kind == Crash {
		return ErrKilled
	}
	return fmt.Errorf("chaos: %s: %w", op, ErrInjected)
}

// arm is one armed fault at one site.
type arm struct {
	kind Kind
	hit  int // fires when the site's hit count reaches this (1-based)
}

// Controller owns one seeded set of armed faults. The zero value is not
// usable; construct with New. All methods are safe for concurrent use,
// and a nil *Controller is inert (every Hit returns the zero Verdict),
// so call sites can thread an optional controller without guards.
type Controller struct {
	mu     sync.Mutex
	seed   uint64
	arms   map[string]*arm
	hits   map[string]int
	fired  map[string]int
	killed atomic.Bool
}

// New returns a controller with nothing armed whose verdict draws
// derive from seed.
func New(seed int64) *Controller {
	return &Controller{
		seed:  uint64(seed),
		arms:  make(map[string]*arm),
		hits:  make(map[string]int),
		fired: make(map[string]int),
	}
}

// ArmAt arms a fault of the given kind to fire once, on exactly the
// hit-th crossing of site (1-based).
func (c *Controller) ArmAt(site string, hit int, kind Kind) {
	if hit < 1 {
		hit = 1
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.arms[site] = &arm{kind: kind, hit: hit}
}

// Hit records one crossing of site and returns the verdict. Once a
// Crash fault has latched, every Hit — any site — returns a fired
// Crash verdict, modelling a process that no longer executes anything.
// Hit on a nil controller returns the zero (disarmed) verdict.
func (c *Controller) Hit(site string) Verdict {
	if c == nil {
		return Verdict{}
	}
	if c.killed.Load() {
		return Verdict{Fired: true, Kind: Crash}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.hits[site]++
	a := c.arms[site]
	if a == nil || c.hits[site] != a.hit {
		return Verdict{}
	}
	// The draw is the first output of the site's private splitmix64
	// stream, seeded by the controller's seed and the site's name.
	_, r := runner.SplitMix64(c.seed ^ runner.FNV1a(site))
	c.fired[site]++
	delete(c.arms, site)
	if a.kind == Crash {
		c.killed.Store(true)
	}
	return Verdict{Fired: true, Kind: a.kind, Rand: r}
}

// Killed reports whether a Crash fault has latched.
func (c *Controller) Killed() bool { return c != nil && c.killed.Load() }

// Fired reports how many faults have fired at site.
func (c *Controller) Fired(site string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.fired[site]
}

// Hits reports how many times site has been crossed.
func (c *Controller) Hits(site string) int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits[site]
}
