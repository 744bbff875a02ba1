package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"masterparasite/internal/artifact"
	_ "masterparasite/internal/experiments" // registers the paper's artifacts
	"masterparasite/internal/runner"
)

// expectedManifestJSON holds the SHA-256 of every deterministic artifact
// at paperParams, rendered as JSON. Regenerate it with
//
//	go run ./cmd/experiments -run table1,table2,table3,table4,table5,fig3,fig5,flows,countermeasures,replay,conditions,fleet/infection-curve,fleet/cnc-fanout \
//	    -sites 400 -days 20 -payload 8192 -format json -parallel 2 -manifest bench/testdata/expected-manifest.json
//
//go:embed testdata/expected-manifest.json
var expectedManifestJSON []byte

// paperParams are the `make artifacts` sizes; every other param keeps
// its default.
var paperParams = map[string]int{"sites": 400, "days": 20, "payload": 8192}

// expectedFingerprints decodes the expected manifest into ID → SHA-256.
func expectedFingerprints() (map[string]string, error) {
	var m artifact.Manifest
	if err := json.Unmarshal(expectedManifestJSON, &m); err != nil {
		return nil, fmt.Errorf("expected manifest: %w", err)
	}
	if m.Format != "json" {
		return nil, fmt.Errorf("expected manifest is %s, want json", m.Format)
	}
	return m.Fingerprints(), nil
}

// metricID spells an artifact ID as a metric name segment: "/" is not
// allowed there, so fleet/cnc-fanout becomes fleet-cnc-fanout.
func metricID(id string) string { return strings.ReplaceAll(id, "/", "-") }

// paperSpecs are the artifacts one pass regenerates: every deterministic
// spec, which is all of them except the wall-clock cnc.
func paperSpecs() []artifact.Spec { return artifact.Deterministic() }

func paperLayers() []metricDef {
	var defs []metricDef
	for _, s := range paperSpecs() {
		id := metricID(s.ID)
		defs = append(defs,
			metricDef{"experiments." + id + ".exec_ms", "ms"},
			metricDef{"experiments." + id + ".allocs", "count"})
	}
	return append(defs,
		metricDef{"artifact.render_ms", "ms"},
		metricDef{"artifact.fingerprint_ms", "ms"},
		metricDef{"runner.parallel_efficiency", "ratio"})
}

// paper regenerates every deterministic artifact per op, the batch unit
// researchers run, and checks each against the expected manifest.
type paper struct {
	pool     *runner.Runner
	renderer artifact.Renderer
	specs    []artifact.Spec
	spans    []paperSpanNames
	want     map[string]string

	efficiency []float64 // traced: per pass, cpu ÷ (wall × workers)
}

// paperSpanNames are one artifact's span names, built once so untraced
// passes do not allocate them.
type paperSpanNames struct{ artifact, exec string }

func setupPaper(cfg config) (instance, error) {
	want, err := expectedFingerprints()
	if err != nil {
		return nil, err
	}
	renderer, err := artifact.RendererFor("json")
	if err != nil {
		return nil, err
	}
	p := &paper{pool: runner.New(workers), renderer: renderer, specs: paperSpecs(), want: want}
	for _, s := range p.specs {
		if _, ok := want[s.ID]; !ok {
			return nil, fmt.Errorf("expected manifest has no entry for %s", s.ID)
		}
		id := "experiments." + metricID(s.ID)
		p.spans = append(p.spans, paperSpanNames{artifact: id, exec: id + ".exec"})
	}
	for i := 0; i < cfg.sizes.paperWarmup; i++ {
		if err := p.op(opCtx{index: i}); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return p, nil
}

func (p *paper) op(c opCtx) error {
	var cpu0 time.Duration
	var t0 time.Time
	if c.tr != nil {
		cpu0, t0 = cpuTime(), time.Now()
	}
	for i, spec := range p.specs {
		art := c.span(p.spans[i].artifact)
		env, err := spec.NewEnv(p.pool, paperParams)
		if err != nil {
			return err
		}
		ex := c.tr.start(c.index, art.id(), p.spans[i].exec)
		res, err := spec.Exec(env)
		ex.end()
		if err != nil {
			return fmt.Errorf("%s: %w", spec.ID, err)
		}
		rd := c.tr.start(c.index, art.id(), "artifact.render")
		var buf bytes.Buffer
		err = p.renderer.Render(&buf, res)
		rd.end()
		if err != nil {
			return fmt.Errorf("render %s: %w", spec.ID, err)
		}
		fp := c.tr.start(c.index, art.id(), "artifact.fingerprint")
		sum := artifact.Fingerprint(buf.Bytes())
		fp.end()
		art.end()
		if sum != p.want[spec.ID] {
			return fmt.Errorf("%s: sha256 %s, expected %s", spec.ID, sum, p.want[spec.ID])
		}
	}
	if c.tr != nil {
		p.efficiency = append(p.efficiency, efficiency(cpuTime()-cpu0, time.Since(t0)))
	}
	return nil
}

func (p *paper) layers(tr *tracer) map[string]metric {
	st := tr.summary()
	m := make(map[string]metric)
	for i, s := range p.specs {
		id := "experiments." + metricID(s.ID)
		m[id+".exec_ms"] = spanMs(st, p.spans[i].exec)
		m[id+".allocs"] = spanAllocs(st, p.spans[i].exec)
	}
	m["artifact.render_ms"] = spanMs(st, "artifact.render")
	m["artifact.fingerprint_ms"] = spanMs(st, "artifact.fingerprint")
	m["runner.parallel_efficiency"] = metric{median(p.efficiency), "ratio", len(p.efficiency)}
	return m
}

func (p *paper) close() error { return nil }
