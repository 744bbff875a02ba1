package artifact

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSummaryJSONRoundTrip locks the exportable spec view: a Summary
// survives marshal → unmarshal unchanged, so a remote frontend decoding
// the spec-list endpoint sees exactly what the registry declared.
func TestSummaryJSONRoundTrip(t *testing.T) {
	spec := Spec{
		ID: "rt", Title: "Round trip", Section: "§T",
		Seed: 41, Deterministic: true,
		Params: []Param{
			{Name: "sites", Usage: "corpus size", Default: 3000, Min: 1},
			{Name: "days", Usage: "study length", Default: 100, Min: 1},
		},
		Run: func(Env) (*Result, error) { return nil, nil },
	}
	want := spec.Summary()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Summary
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip changed the summary:\ngot  %+v\nwant %+v", got, want)
	}
	if got.Params[0].Default != 3000 || got.Params[1].Min != 1 {
		t.Fatalf("param bounds lost: %+v", got.Params)
	}
}

// TestSummariesMatchRegistry asserts the exported list mirrors the
// registry: same IDs in the same order, params copied field-for-field.
func TestSummariesMatchRegistry(t *testing.T) {
	specs := All()
	sums := Summaries()
	if len(sums) != len(specs) {
		t.Fatalf("len = %d, want %d", len(sums), len(specs))
	}
	for i, s := range specs {
		sum := sums[i]
		if sum.ID != s.ID || sum.Title != s.Title || sum.Section != s.Section ||
			sum.Seed != s.Seed || sum.Deterministic != s.Deterministic {
			t.Errorf("summary %d identity mismatch: %+v vs spec %+v", i, sum, s)
		}
		if len(sum.Params) != len(s.Params) {
			t.Errorf("summary %s params = %d, want %d", s.ID, len(sum.Params), len(s.Params))
			continue
		}
		for j, p := range s.Params {
			got := sum.Params[j]
			if got.Name != p.Name || got.Usage != p.Usage || got.Default != p.Default || got.Min != p.Min {
				t.Errorf("summary %s param %q mismatch: %+v vs %+v", s.ID, p.Name, got, p)
			}
		}
	}
}
