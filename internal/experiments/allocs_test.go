package experiments

import (
	"runtime"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/runner"
)

// artifactAllocBudgets caps the allocations and the bytes allocated by
// one Exec per deterministic artifact at the `make artifacts` sizes
// (goldenParams) on one worker. Each budget is the value in its comment
// (allocations; bytes) plus 3%, the BENCHMARK.json bound; the value is
// the most of several runs on Go 1.24.0 when the budget was last
// lowered. A change that lowers a value lowers its budget with it.
var artifactAllocBudgets = map[string]struct{ allocs, bytes uint64 }{
	"table1":                {10152, 2957253}, // 9,857; 2,871,120
	"table2":                {5509, 1072988},  // 5,349; 1,041,736
	"table3":                {3856, 727831},   // 3,744; 706,632 (its bytes now read 708,488: the budget is kept)
	"table4":                {1165, 88670},    // 1,132; 86,088
	"table5":                {12244, 1864036}, // 11,888; 1,809,744
	"fig3":                  {1620, 1024281},  // 1,573; 994,448
	"fig5":                  {2217, 971653},   // 2,152; 943,352
	"flows":                 {1326, 214520},   // 1,288; 208,272
	"countermeasures":       {3693, 611086},   // 3,586; 593,288
	"replay":                {11376, 6407967}, // 11,045; 6,221,328
	"conditions":            {20415, 7242325}, // 19,821; 7,031,384
	"fleet/infection-curve": {4680, 3136943},  // 4,544; 3,045,576
	"fleet/cnc-fanout":      {8020, 5360334},  // 7,787; 5,204,208
}

// TestArtifactAllocs is the per-artifact allocation ratchet: after one
// warm-up pass over every deterministic spec (package-level pools and
// tables fill once per process), it counts the allocations and the bytes
// allocated by each spec's Exec on runner.New(1) and holds them to
// artifactAllocBudgets. A spec with no budget fails. Skipped in -short
// mode, where the race detector perturbs counts; `make allocs` runs it.
func TestArtifactAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	specs := artifact.Deterministic()
	envs := make([]artifact.Env, len(specs))
	for i, spec := range specs {
		env, err := spec.NewEnv(runner.New(1), goldenParams)
		if err != nil {
			t.Fatal(err)
		}
		envs[i] = env
		if _, err := spec.Exec(env); err != nil {
			t.Fatalf("%s warm-up: %v", spec.ID, err)
		}
	}
	var total, totalBytes uint64
	for i, spec := range specs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := spec.Exec(envs[i])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs, bytes := after.Mallocs-before.Mallocs, after.TotalAlloc-before.TotalAlloc
		total += allocs
		totalBytes += bytes
		budget, ok := artifactAllocBudgets[spec.ID]
		switch {
		case !ok:
			t.Errorf("%s: %d allocations (%d bytes) and no budget", spec.ID, allocs, bytes)
		case allocs > budget.allocs || bytes > budget.bytes:
			t.Errorf("%s: %d allocations, budget %d; %d bytes, budget %d", spec.ID, allocs, budget.allocs, bytes, budget.bytes)
		default:
			t.Logf("%s: %d allocations, budget %d; %d bytes, budget %d", spec.ID, allocs, budget.allocs, bytes, budget.bytes)
		}
	}
	t.Logf("total: %d allocations, %d bytes", total, totalBytes)
}
