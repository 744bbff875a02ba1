// Package artifact is the registry-driven API behind the paper's
// regenerable evaluation artifacts (tables, figures, measurements).
//
// Every artifact is described by a Spec: a stable ID, the paper section
// it reproduces, its tunable Params (with defaults and validation), the
// base Seed its scenarios derive their randomness from, and a Run
// function that regenerates it inside an Env. internal/experiments
// self-registers one Spec per table and figure; frontends
// (cmd/experiments, cmd/crawl, CI) discover artifacts through the
// package-level registry instead of hard-coding entry points.
//
// A Run returns a Result whose Dataset is typed and JSON-marshalable —
// never a bare `any` — so the same artifact renders as canonical text,
// JSON, CSV, or Markdown through a Renderer, and every rendered byte
// stream is fingerprinted into a run Manifest. Because deterministic
// artifacts are byte-identical at any scenario-fleet worker count, two
// manifests from runs at different -parallel N must carry identical
// SHA-256 fingerprints, making the determinism guarantee checkable
// from the manifests alone.
package artifact

import (
	"bytes"
	"fmt"

	"masterparasite/internal/runner"
)

// Param declares one tunable input of an artifact. Params are integers
// (corpus sizes, study days, payload bytes, seeds); a frontend exposes
// each declared name as a flag and the Spec validates supplied values.
type Param struct {
	Name    string `json:"name"`
	Usage   string `json:"usage"`
	Default int    `json:"default"`
	// Min is the smallest accepted value. Values below Min fail
	// validation in NewEnv.
	Min int `json:"min"`
}

// Spec describes one regenerable artifact. Its JSON form is everything
// a remote caller needs to construct a valid run request — identity,
// declared params with defaults and bounds, the base seed, and whether
// the rendered output is deterministic — without the Run function;
// labd's spec routes serve it.
type Spec struct {
	// ID is the stable registry key ("table1" ... "fig5", "cnc").
	ID string `json:"id"`
	// Title heads the rendered artifact, e.g. "Table I: cache eviction
	// on popular browsers".
	Title string `json:"title"`
	// Section names the paper artefact being reproduced ("Table I",
	// "Fig. 3", "§VI-C", ...).
	Section string `json:"section"`
	// Params are the accepted inputs, applied as defaults and validated
	// by NewEnv. Specs sharing a param name must agree on its
	// declaration (enforced at registration).
	Params []Param `json:"params,omitempty"`
	// Seed is the base seed the artifact's scenarios derive their
	// randomness from; recorded in the manifest. Zero means the
	// artifact takes its seed from a "seed" param or uses none.
	Seed int64 `json:"seed,omitempty"`
	// Deterministic marks artifacts whose rendered output is a pure
	// function of the seeds and params — everything except wall-clock
	// measurements. Deterministic artifacts must fingerprint
	// identically at any worker count.
	Deterministic bool `json:"deterministic"`
	// Run regenerates the artifact. The returned Result needs only
	// Text and Dataset; Exec stamps identity and params from the Spec.
	Run func(Env) (*Result, error) `json:"-"`
}

// Env is what a Spec.Run receives: the scenario-fleet runner to fan
// jobs out on, plus the validated parameter values.
type Env struct {
	Runner *runner.Runner
	params map[string]int
}

// Param returns a validated parameter value. Asking for a name the
// Spec did not declare is a programming error and panics.
func (e Env) Param(name string) int {
	v, ok := e.params[name]
	if !ok {
		panic(fmt.Sprintf("artifact: param %q not declared by this spec", name))
	}
	return v
}

// Params returns a copy of the resolved parameter values.
func (e Env) Params() map[string]int {
	out := make(map[string]int, len(e.params))
	for k, v := range e.params {
		out[k] = v
	}
	return out
}

// NewEnv resolves an environment for this spec: declared params start
// at their defaults, overrides for declared names are applied and
// validated, and overrides for names the spec does not declare are
// ignored (they belong to other specs in the same run).
func (s Spec) NewEnv(r *runner.Runner, overrides map[string]int) (Env, error) {
	params := make(map[string]int, len(s.Params))
	for _, p := range s.Params {
		v := p.Default
		if ov, ok := overrides[p.Name]; ok {
			v = ov
		}
		if v < p.Min {
			return Env{}, fmt.Errorf("artifact %s: param %s = %d below minimum %d", s.ID, p.Name, v, p.Min)
		}
		params[p.Name] = v
	}
	return Env{Runner: r, params: params}, nil
}

// Exec runs the artifact in the given environment and stamps the
// result with the spec's identity and the resolved params.
func (s Spec) Exec(env Env) (*Result, error) {
	res, err := s.Run(env)
	if err != nil {
		return nil, err
	}
	if res.Dataset == nil {
		return nil, fmt.Errorf("artifact %s: result carries no dataset", s.ID)
	}
	res.ID = s.ID
	res.Title = s.Title
	res.Section = s.Section
	res.Params = env.Params()
	return res, nil
}

// RunRendered is the batch commands' execution sequence: resolve an
// environment for the spec, execute it, and render the result. labd
// and the benchmark make the same calls with their own steps between
// them. Errors are annotated with the spec's ID.
func RunRendered(s Spec, r *runner.Runner, overrides map[string]int, renderer Renderer) (*Result, []byte, error) {
	env, err := s.NewEnv(r, overrides)
	if err != nil {
		return nil, nil, err
	}
	res, err := s.Exec(env)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", s.ID, err)
	}
	var buf bytes.Buffer
	if err := renderer.Render(&buf, res); err != nil {
		return nil, nil, fmt.Errorf("render %s: %w", s.ID, err)
	}
	return res, buf.Bytes(), nil
}

// Result is one regenerated artifact.
type Result struct {
	ID      string         `json:"id"`
	Title   string         `json:"title"`
	Section string         `json:"section"`
	Params  map[string]int `json:"params,omitempty"`
	// Text is the canonical human rendering — byte-identical to the
	// pre-registry CLI output.
	Text string `json:"-"`
	// Dataset is the typed, JSON-marshalable dataset behind the text.
	Dataset Dataset `json:"dataset"`
}

// Dataset is a typed, JSON-marshalable experiment dataset. Table
// flattens it into one tabular form — a header plus one string row per
// record — for the CSV and Markdown renderers.
type Dataset interface {
	Table() (header []string, rows [][]string)
}
