package labd

import (
	"encoding/json"
	"time"
)

// Status is a run's position in its lifecycle. Transitions are strictly
// forward: queued → running → rendering → done, where any stage may
// instead end in failed — an execution, render, or store error, or a
// stage record that could not be persisted. A daemon restart moves a run that was mid-flight when the process
// died either to resumed — when its spec is Resumable and the resume
// budget (maxResumes, 3 restarts) is not exhausted, after which the run
// re-enters running and skips fleet chunks its checkpoint already
// committed — or straight to failed (detail "interrupted by restart").
type Status string

// The run lifecycle stages, in order.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusResumed   Status = "resumed"
	StatusRendering Status = "rendering"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
)

// Terminal reports whether the status is an end state.
func (s Status) Terminal() bool { return s == StatusDone || s == StatusFailed }

// Stage is one recorded lifecycle transition: which stage the run
// entered, when, and an optional detail — the render format on
// rendering, "sha256:<fingerprint>" on done, the error text on failed.
type Stage struct {
	Stage  Status    `json:"stage"`
	At     time.Time `json:"at"`
	Detail string    `json:"detail,omitempty"`
}

// Record is the durable description of one enqueued run. It is the
// store's unit of persistence and the API's run resource: the validated
// request (spec, resolved params, format), the lifecycle trail with
// stage timestamps, and — once done — the rendered artifact's size and
// manifest-style SHA-256 fingerprint. A deterministic run's fingerprint
// must equal the batch CLI's manifest entry for the same spec, params,
// and format at any worker count.
type Record struct {
	ID      string         `json:"id"`
	Spec    string         `json:"spec"`
	Title   string         `json:"title"`
	Section string         `json:"section"`
	Params  map[string]int `json:"params,omitempty"`
	// Seed is the spec's base seed, recorded exactly as a manifest
	// entry records it (a "seed" request field feeds the seed param).
	Seed          int64  `json:"seed,omitempty"`
	Deterministic bool   `json:"deterministic"`
	Format        string `json:"format"`

	Status Status  `json:"status"`
	Stages []Stage `json:"stages"`
	Error  string  `json:"error,omitempty"`

	// Resumes counts how many daemon restarts this run has survived
	// mid-flight; recovery latches the run failed once it reaches
	// maxResumes instead of resuming forever.
	Resumes int `json:"resumes,omitempty"`

	// Bytes and SHA256 describe the rendered artifact once Status is
	// done; SHA256 is comparable against artifact.ManifestEntry.SHA256.
	Bytes  int    `json:"bytes,omitempty"`
	SHA256 string `json:"sha256,omitempty"`
}

// Clone returns an independent deep copy, so a snapshot handed outside
// the server's lock cannot race with later stage appends.
func (r *Record) Clone() *Record {
	out := *r
	out.Stages = append([]Stage(nil), r.Stages...)
	if r.Params != nil {
		out.Params = make(map[string]int, len(r.Params))
		for k, v := range r.Params {
			out.Params[k] = v
		}
	}
	return &out
}

// encodeRecord renders the API/store wire form: indented JSON plus a
// trailing newline. Params maps marshal with sorted keys, so the bytes
// are deterministic for a given record.
func encodeRecord(r *Record) []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		// A Record is plain data; marshalling cannot fail at runtime.
		panic("labd: encode record: " + err.Error())
	}
	return append(b, '\n')
}
