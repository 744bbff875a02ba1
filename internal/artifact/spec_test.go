package artifact

import (
	"encoding/json"
	"reflect"
	"testing"
)

// TestSpecJSONRoundTrip locks the exportable spec view that labd's spec
// routes serve: the field names, params with their defaults and bounds,
// no Run function, and an empty param list and a zero seed left out. A
// remote frontend decoding it gets back everything but Run.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := Spec{
		ID: "rt", Title: "Round trip", Section: "§T",
		Seed: 41, Deterministic: true,
		Params: []Param{
			{Name: "sites", Usage: "corpus size", Default: 3000, Min: 1},
			{Name: "days", Usage: "study length", Default: 100, Min: 1},
		},
		Run: func(Env) (*Result, error) { return nil, nil },
	}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"id":"rt","title":"Round trip","section":"§T",` +
		`"params":[{"name":"sites","usage":"corpus size","default":3000,"min":1},` +
		`{"name":"days","usage":"study length","default":100,"min":1}],` +
		`"seed":41,"deterministic":true}`
	if string(b) != want {
		t.Fatalf("spec JSON:\n got %s\nwant %s", b, want)
	}
	var got Spec
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	spec.Run = nil
	if !reflect.DeepEqual(got, spec) {
		t.Fatalf("round trip changed the spec:\ngot  %+v\nwant %+v", got, spec)
	}

	bare, err := json.Marshal(Spec{ID: "x", Title: "X", Section: "§X", Params: []Param{}})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"id":"x","title":"X","section":"§X","deterministic":false}`; string(bare) != want {
		t.Fatalf("bare spec JSON:\n got %s\nwant %s", bare, want)
	}
}
