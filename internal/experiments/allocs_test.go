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
	"table1":                {10566, 2959182}, // 10,258; 2,872,992
	"table2":                {5865, 1096819},  // 5,694; 1,064,872
	"table3":                {3988, 727831},   // 3,871; 706,632
	"table4":                {1166, 88671},    // 1,132; 86,088
	"table5":                {12921, 1907972}, // 12,544; 1,852,400
	"fig3":                  {2445, 1070763},  // 2,374; 1,039,576
	"fig5":                  {2217, 971653},   // 2,152; 943,352
	"flows":                 {1362, 217100},   // 1,322; 210,776
	"countermeasures":       {3902, 629050},   // 3,788; 610,728
	"replay":                {11735, 6428016}, // 11,393; 6,240,792
	"conditions":            {21290, 7309737}, // 20,669; 7,096,832
	"fleet/infection-curve": {6714, 3183129},  // 6,518; 3,090,416
	"fleet/cnc-fanout":      {11433, 5505828}, // 11,100; 5,345,464
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
