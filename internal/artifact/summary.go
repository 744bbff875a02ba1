package artifact

// ParamSummary is the JSON-exportable description of one declared
// parameter: its name, what it tunes, the default applied when a caller
// omits it, and the lower bound validation enforces.
type ParamSummary struct {
	Name    string `json:"name"`
	Usage   string `json:"usage"`
	Default int    `json:"default"`
	Min     int    `json:"min"`
}

// Summary is the typed, JSON-exportable view of a Spec: everything a
// remote caller needs to construct a valid run request — identity,
// declared params with defaults and bounds, the base seed, and whether
// the rendered output is deterministic — without the Run function.
// Serving frontends (labd's spec-list endpoint) expose the registry
// through Summaries instead of leaking Spec itself.
type Summary struct {
	ID            string         `json:"id"`
	Title         string         `json:"title"`
	Section       string         `json:"section"`
	Params        []ParamSummary `json:"params,omitempty"`
	Seed          int64          `json:"seed,omitempty"`
	Deterministic bool           `json:"deterministic"`
}

// Summary returns the spec's exportable view.
func (s Spec) Summary() Summary {
	out := Summary{
		ID:            s.ID,
		Title:         s.Title,
		Section:       s.Section,
		Seed:          s.Seed,
		Deterministic: s.Deterministic,
	}
	for _, p := range s.Params {
		out.Params = append(out.Params, ParamSummary{
			Name: p.Name, Usage: p.Usage, Default: p.Default, Min: p.Min,
		})
	}
	return out
}

// Summaries returns the exportable view of every registered spec, in
// registration order.
func Summaries() []Summary {
	specs := All()
	out := make([]Summary, len(specs))
	for i, s := range specs {
		out[i] = s.Summary()
	}
	return out
}
