package experiments

import (
	"runtime"
	"testing"

	"masterparasite/internal/artifact"
	"masterparasite/internal/runner"
)

// artifactAllocBudgets caps the allocations of one Exec per
// deterministic artifact at the `make artifacts` sizes (goldenParams)
// on one worker. Each budget is the count in its comment, the most of
// three runs on Go 1.24.0, plus 3%, the BENCHMARK.json bound. A change
// that lowers a count lowers its budget with it.
var artifactAllocBudgets = map[string]uint64{
	"table1":                14470, // 14,048
	"table2":                6370,  // 6,184
	"table3":                4503,  // 4,371
	"table4":                1664,  // 1,615
	"table5":                13947, // 13,540
	"fig3":                  26145, // 25,383
	"fig5":                  12749, // 12,377
	"flows":                 1500,  // 1,456
	"countermeasures":       4632,  // 4,497
	"replay":                12985, // 12,606
	"conditions":            27189, // 26,397
	"fleet/infection-curve": 6714,  // 6,518
	"fleet/cnc-fanout":      11433, // 11,100
}

// TestArtifactAllocs is the per-artifact allocation ratchet: after one
// warm-up pass over every deterministic spec (memoized corpora and
// pools fill once per process), it counts the allocations of each
// spec's Exec on runner.New(1) and holds them to artifactAllocBudgets.
// A spec with no budget fails. Skipped in -short mode, where the race
// detector perturbs counts; `make allocs` runs it.
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
	var total uint64
	for i, spec := range specs {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		_, err := spec.Exec(envs[i])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		allocs := after.Mallocs - before.Mallocs
		total += allocs
		budget, ok := artifactAllocBudgets[spec.ID]
		switch {
		case !ok:
			t.Errorf("%s: %d allocations and no budget", spec.ID, allocs)
		case allocs > budget:
			t.Errorf("%s: %d allocations, budget %d", spec.ID, allocs, budget)
		default:
			t.Logf("%s: %d allocations, budget %d", spec.ID, allocs, budget)
		}
	}
	t.Logf("total: %d allocations", total)
}
