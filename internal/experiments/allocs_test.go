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
	"table1":                {11467, 4569179},  // 11,133; 4,436,096
	"table2":                {6082, 1123681},   // 5,904; 1,090,952
	"table3":                {4257, 761846},    // 4,133; 739,656
	"table4":                {1253, 102992},    // 1,216; 99,992
	"table5":                {13236, 1953161},  // 12,850; 1,896,272
	"fig3":                  {26145, 11734856}, // 25,383; 11,393,064
	"fig5":                  {12749, 2003301},  // 12,377; 1,944,952
	"flows":                 {1422, 240435},    // 1,380; 233,432
	"countermeasures":       {4165, 656374},    // 4,043; 637,256
	"replay":                {12280, 6638614},  // 11,922; 6,445,256
	"conditions":            {22156, 8213731},  // 21,510; 7,974,496
	"fleet/infection-curve": {6714, 3183129},   // 6,518; 3,090,416
	"fleet/cnc-fanout":      {11433, 5505828},  // 11,100; 5,345,464
}

// TestArtifactAllocs is the per-artifact allocation ratchet: after one
// warm-up pass over every deterministic spec (memoized corpora and
// pools fill once per process), it counts the allocations and the bytes
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
