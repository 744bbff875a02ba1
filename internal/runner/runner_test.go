package runner

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// work simulates one deterministic scenario job: draw from an RNG
// seeded only by the job's identity and fold the draws together.
func work(base int64, id string) uint64 {
	rng := rand.New(rand.NewSource(Seed(base, id)))
	var acc uint64
	for i := 0; i < 100; i++ {
		acc = acc*31 + uint64(rng.Int63())
	}
	return acc
}

func TestMapPreservesOrderAcrossWorkerCounts(t *testing.T) {
	items := make([]string, 64)
	for i := range items {
		items[i] = fmt.Sprintf("job-%d", i)
	}
	run := func(workers int) []uint64 {
		out, err := Map(New(workers), items, func(_ int, id string) (uint64, error) {
			return work(42, id), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, n := range []int{2, 4, 8, 16} {
		got := run(n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: item %d = %d, want %d", n, i, got[i], want[i])
			}
		}
	}
}

func TestMapRunsJobsConcurrently(t *testing.T) {
	// All four jobs block until every one of them has started; this
	// can only complete if the pool really runs four jobs at once.
	const n = 4
	var started sync.WaitGroup
	started.Add(n)
	allStarted := make(chan struct{})
	go func() {
		started.Wait()
		close(allStarted)
	}()
	_, err := Map(New(n), make([]struct{}, n), func(i int, _ struct{}) (int, error) {
		started.Done()
		select {
		case <-allStarted:
			return i, nil
		case <-time.After(10 * time.Second):
			return 0, fmt.Errorf("job %d: pool never reached %d concurrent jobs", i, n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMapReportsLowestIndexError(t *testing.T) {
	boom3 := errors.New("job 3 failed")
	boom9 := errors.New("job 9 failed")
	for _, workers := range []int{1, 8} {
		_, err := Map(New(workers), make([]int, 16), func(i int, _ int) (int, error) {
			switch i {
			case 3:
				return 0, boom3
			case 9:
				return 0, boom9
			}
			return i, nil
		})
		if !errors.Is(err, boom3) {
			t.Fatalf("workers=%d: err = %v, want lowest-index %v", workers, err, boom3)
		}
	}
}

func TestMapRunsEveryJobDespiteFailures(t *testing.T) {
	var ran atomic32
	_, err := Map(New(4), make([]int, 32), func(i int, _ int) (int, error) {
		ran.inc()
		if i%5 == 0 {
			return 0, errors.New("fail")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if got := ran.load(); got != 32 {
		t.Fatalf("ran %d of 32 jobs", got)
	}
}

func TestSeedStableAndDistinct(t *testing.T) {
	if Seed(7, "table1/Chrome") != Seed(7, "table1/Chrome") {
		t.Fatal("seed not stable")
	}
	seen := map[int64]string{}
	for _, base := range []int64{0, 1, 42} {
		for i := 0; i < 100; i++ {
			id := fmt.Sprintf("job-%d", i)
			s := Seed(base, id)
			if s == 0 {
				t.Fatalf("zero seed for base=%d id=%s", base, id)
			}
			key := fmt.Sprintf("%d/%s", base, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: %s and %s", prev, key)
			}
			seen[s] = key
		}
	}
}

// TestSplitMix64AndFNV1aVectors pins the shared primitives to their
// reference outputs: every seeded stream in the repo (link faults,
// chaos schedules, job seeds) is only reproducible if these never move.
func TestSplitMix64AndFNV1aVectors(t *testing.T) {
	state := uint64(0)
	for i, want := range []uint64{0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f, 0xf88bb8a8724c81ec} {
		var out uint64
		state, out = SplitMix64(state)
		if out != want {
			t.Fatalf("splitmix64 draw %d from seed 0 = %#x, want %#x", i, out, want)
		}
	}
	for s, want := range map[string]uint64{"": 0xcbf29ce484222325, "a": 0xaf63dc4c8601ec8c, "foobar": 0x85944171f73967e8} {
		if got := FNV1a(s); got != want {
			t.Fatalf("FNV1a(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestNewDefaultsAndSmallBatches(t *testing.T) {
	if New(0).Workers() < 1 {
		t.Fatal("default pool empty")
	}
	if got := New(-3).Workers(); got < 1 {
		t.Fatalf("negative parallelism gave %d workers", got)
	}
	// More workers than items must not deadlock or drop results.
	out, err := Map(New(16), []int{10, 20}, func(_ int, v int) (int, error) { return v * 2, nil })
	if err != nil || len(out) != 2 || out[0] != 20 || out[1] != 40 {
		t.Fatalf("out = %v, err = %v", out, err)
	}
	// Empty batch.
	if out, err := Map(New(4), nil, func(_ int, v int) (int, error) { return v, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty batch: out = %v, err = %v", out, err)
	}
}

// TestMapStress hammers the pool under the race detector: many small
// batches with shared-nothing jobs, run back to back from multiple
// goroutines (a Runner is safe for concurrent use across batches).
func TestMapStress(t *testing.T) {
	r := New(8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				items := make([]string, 17)
				for i := range items {
					items[i] = fmt.Sprintf("g%d-r%d-j%d", g, round, i)
				}
				out, err := Map(r, items, func(_ int, id string) (uint64, error) {
					return work(int64(g), id), nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				for i, id := range items {
					if out[i] != work(int64(g), id) {
						t.Errorf("batch g=%d round=%d item %d mismatch", g, round, i)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// atomic32 is a tiny counter helper so the test file needs no extra
// imports beyond the stress test's needs.
type atomic32 struct {
	mu sync.Mutex
	n  int
}

func (a *atomic32) inc() {
	a.mu.Lock()
	a.n++
	a.mu.Unlock()
}

func (a *atomic32) load() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.n
}

// TestChunksCoverExactly pins the tiling helper: every index in [0, n)
// appears in exactly one range, ranges are in order, and none is empty.
func TestChunksCoverExactly(t *testing.T) {
	for _, c := range []struct{ n, workers int }{
		{0, 4}, {1, 1}, {1, 8}, {15, 1}, {16, 4}, {100, 1},
		{100, 7}, {1000, 8}, {3, 16}, {64, 64},
	} {
		chunks := Chunks(c.n, c.workers)
		next := 0
		for _, ch := range chunks {
			if ch[0] != next {
				t.Fatalf("n=%d workers=%d: range starts at %d, want %d", c.n, c.workers, ch[0], next)
			}
			if ch[1] <= ch[0] {
				t.Fatalf("n=%d workers=%d: empty range %v", c.n, c.workers, ch)
			}
			next = ch[1]
		}
		if next != c.n {
			t.Fatalf("n=%d workers=%d: ranges cover [0,%d), want [0,%d)", c.n, c.workers, next, c.n)
		}
	}
}

// TestChunksSequentialIsSingle pins the no-overhead property for the
// sequential case: one worker means one chunk for any study size small
// enough to matter.
func TestChunksSequentialIsSingle(t *testing.T) {
	for _, n := range []int{1, 10, 100} {
		if got := len(Chunks(n, 1)); got != 1 {
			t.Fatalf("Chunks(%d, 1) = %d ranges, want 1", n, got)
		}
	}
}

// TestChunksRespectMinimumSpan ensures tiling never fragments below the
// scheduling-overhead floor.
func TestChunksRespectMinimumSpan(t *testing.T) {
	for _, c := range []struct{ n, workers int }{{100, 64}, {33, 8}, {17, 16}} {
		for _, ch := range Chunks(c.n, c.workers) {
			if span := ch[1] - ch[0]; span < minChunk && len(Chunks(c.n, c.workers)) > 1 {
				t.Fatalf("n=%d workers=%d: span %d below minimum %d", c.n, c.workers, span, minChunk)
			}
		}
	}
}
