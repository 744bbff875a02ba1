// Package runner is the concurrent scenario-fleet engine: it executes
// batches of independent jobs — typically one core.Scenario kill-chain
// run each — across a fixed worker pool while keeping the batch result
// bit-for-bit deterministic. Three rules make parallelism invisible to
// callers:
//
//  1. Jobs never share mutable state. Each job assembles its own
//     scenario, seeded via Seed(base, id) so its randomness depends
//     only on its identity, never on scheduling.
//  2. Results are assembled in submission order, not completion order.
//  3. A failed batch reports the lowest-index error, not whichever
//     worker happened to lose the race; every job still runs, exactly
//     as in the sequential case.
//
// Consequently the output of a batch run with one worker is identical
// to the same batch run with any other worker count, which is what
// lets the experiments regenerate the paper's tables and figures in
// parallel without perturbing a single byte.
package runner

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes batches of independent jobs on a worker pool of a
// fixed size. The zero value is not usable; construct with New. A
// Runner is stateless between batches and safe for concurrent use,
// but jobs must not submit nested batches to the runner that is
// executing them — nest by constructing a scoped sub-runner instead.
type Runner struct {
	workers int
}

// New returns a Runner with the given parallelism. n <= 0 selects
// GOMAXPROCS, n == 1 is strictly sequential (no goroutines at all).
func New(n int) *Runner {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Runner{workers: n}
}

// Workers reports the pool size.
func (r *Runner) Workers() int { return r.workers }

// Map applies fn to every item on the runner's pool and returns the
// results in item order. fn receives the item's index and must be
// safe to call concurrently with itself on distinct items. All items
// are processed even when some fail — mirroring the sequential path —
// and the returned error is the one from the lowest-index item.
func Map[T, R any](r *Runner, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	out := make([]R, len(items))
	errs := make([]error, len(items))

	workers := r.workers
	if workers > len(items) {
		workers = len(items)
	}
	if workers <= 1 {
		for i := range items {
			out[i], errs[i] = fn(i, items[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(items) {
						return
					}
					out[i], errs[i] = fn(i, items[i])
				}
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

// minChunk is the smallest span Chunks will produce: below this the
// per-job scheduling overhead outweighs the work in the span.
const minChunk = 16

// Chunks splits n items into balanced contiguous [lo, hi) ranges sized
// for a pool of the given width. It aims for ~4 spans per worker so a
// straggling span cannot serialise the batch tail, but never cuts spans
// smaller than minChunk items. With one worker (or few items) it
// returns a single full range, so sequential callers pay no overhead.
func Chunks(n, workers int) [][2]int {
	if n <= 0 {
		return nil
	}
	chunks := 1
	if workers > 1 {
		chunks = workers * 4
		if maxChunks := n / minChunk; chunks > maxChunks {
			chunks = maxChunks
		}
		if chunks < 1 {
			chunks = 1
		}
	}
	out := make([][2]int, 0, chunks)
	for i := 0; i < chunks; i++ {
		lo, hi := i*n/chunks, (i+1)*n/chunks
		if lo < hi {
			out = append(out, [2]int{lo, hi})
		}
	}
	return out
}

// Seed derives a per-job RNG seed from a batch base seed and the
// job's identity. The derivation is pure (FNV-1a over base and id),
// so a job's seed depends only on what the job is — never on worker
// count, scheduling, or the presence of other jobs — and is always
// non-zero, because scenario configs treat seed 0 as "default".
func Seed(base int64, id string) int64 {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(base))
	s := int64(fnv1a(fnv1a(fnvOffset, string(b[:])), id))
	if s == 0 {
		return 1
	}
	return s
}

// FNV-1a 64-bit parameters (the same hash as hash/fnv's New64a).
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds s into the running FNV-1a hash h.
func fnv1a(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// FNV1a is the 64-bit FNV-1a hash of s. Seeded streams mix it into
// their seed so each named stream (a link, a fault site) draws
// independently of every other and of creation order.
func FNV1a(s string) uint64 { return fnv1a(fnvOffset, s) }

// SplitMix64 advances a splitmix64 stream one step: it returns the
// stream's next state and the 64-bit output drawn at that state. Tiny,
// allocation-free and inlinable, it is the repo's one seeded PRNG —
// netsim link faults and chaos fault schedules both draw from it.
func SplitMix64(state uint64) (next, out uint64) {
	next = state + 0x9e3779b97f4a7c15
	z := next
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return next, z ^ (z >> 31)
}
