// Package script models the JavaScript objects that the attack infects.
//
// A script has two identities that the persistency study (§VI-A, Fig. 3)
// distinguishes: its *name* (the URL path, which browser caches use as
// key) and its *content hash* (which changes when the site updates the
// file). Parasite code is represented as a marker embedded in the script
// bytes — "';PARASITE_CODE;' is appended to the end of the corresponding
// original JavaScript file" — and a Runtime dispatches registered native
// behaviours when a browser executes a script containing markers.
package script

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"masterparasite/internal/dom"
	"masterparasite/internal/httpsim"
)

// Script is a named blob of executable content.
type Script struct {
	URL     string
	Content []byte
}

// SHA256 returns the hex content hash — the "persistent (hash)" identity
// of Fig. 3.
func (s *Script) SHA256() string {
	sum := sha256.Sum256(s.Content)
	return hex.EncodeToString(sum[:])
}

// Name returns the script's name identity: host plus path without the
// query string. Browser caches key by name, so this is what the attacker
// needs to stay stable (Fig. 3 "persistent (name)").
func Name(url string) string {
	if i := strings.IndexByte(url, '?'); i >= 0 {
		return url[:i]
	}
	return url
}

// Marker delimiters. The payload is opaque to this package; the parasite
// package uses it to carry the parasite configuration ID.
const (
	markerOpen  = ";/*MP:"
	markerClose = "*/;"
)

// Marker is one embedded behaviour reference.
type Marker struct {
	Kind    string
	Payload string
}

// Embed appends a marker to JavaScript content, preserving the original
// bytes so the page keeps functioning ("The original function is
// preserved by attaching it to the end", §VI-A — here the parasite comes
// last, same effect).
func Embed(content []byte, kind, payload string) []byte {
	out := make([]byte, 0, len(content)+len(markerOpen)+len(kind)+len(payload)+8)
	out = append(out, content...)
	out = append(out, '\n')
	out = append(out, []byte(markerOpen+kind+":"+payload+markerClose)...)
	return out
}

// EmbedHTML inserts a script-tag marker before the closing </body> tag
// (§VI-A: "for HTML files, a '<script>PARASITE CODE</script>' tag is
// inserted before the closing '</body>' tag"). If no </body> exists the
// marker is appended.
func EmbedHTML(html []byte, kind, payload string) []byte {
	tag := "<script>" + markerOpen + kind + ":" + payload + markerClose + "</script>"
	s := string(html)
	if i := strings.LastIndex(strings.ToLower(s), "</body>"); i >= 0 {
		return []byte(s[:i] + tag + s[i:])
	}
	return []byte(s + tag)
}

// Markers extracts every embedded marker from content.
func Markers(content []byte) []Marker {
	var out []Marker
	s := string(content)
	for {
		i := strings.Index(s, markerOpen)
		if i < 0 {
			return out
		}
		rest := s[i+len(markerOpen):]
		j := strings.Index(rest, markerClose)
		if j < 0 {
			return out
		}
		kind, payload, _ := strings.Cut(rest[:j], ":")
		out = append(out, Marker{Kind: kind, Payload: payload})
		s = rest[j+len(markerClose):]
	}
}

// Infected reports whether content carries at least one marker.
func Infected(content []byte) bool {
	return strings.Contains(string(content), markerOpen)
}

// Env is the capability surface a browser grants to executing scripts —
// the sandbox. Everything the parasite does (§VI, §VII) goes through
// these methods and nothing else.
type Env interface {
	// Now returns the simulation clock.
	Now() time.Duration
	// PageURL returns the URL of the page the script runs in.
	PageURL() string
	// PageHost returns the origin host of that page (the SOP origin).
	PageHost() string
	// ScriptURL returns the URL the executing script was loaded from.
	ScriptURL() string
	// Document gives full DOM read/write access.
	Document() *dom.Document
	// UserAgent identifies the browser.
	UserAgent() string
	// Cookies returns document.cookie for a domain. Per the SOP the
	// browser only honours requests for the page's own host; the parasite
	// circumvents this by *running inside* each origin it infected.
	Cookies(domain string) string
	// SetCookie writes a cookie for the page's origin.
	SetCookie(name, value string)
	// LocalStorage returns the page origin's local storage map (live).
	LocalStorage() map[string]string
	// Fetch issues a cache-aware subresource request from the page
	// context. The URL is host-qualified ("host/path"). The response
	// may be the one a cache stores, so cb only reads it.
	Fetch(url string, cb func(*httpsim.Response, error))
	// FetchNoCache bypasses the cache, as done with cache-buster query
	// strings (Fig. 2 step 3: "GET somesite.com/my.js?t=500198").
	FetchNoCache(url string, cb func(*httpsim.Response, error))
	// AddIframe appends an iframe to the DOM; the browser loads the
	// framed page and all its subresources (§VI-B1 propagation).
	AddIframe(url string)
	// AddImage appends an img element; onload reports the cross-origin-
	// visible dimensions ("most image properties are hidden, but the
	// image dimensions are visible", §VI-C).
	AddImage(url string, onload func(width, height int, ok bool))
	// CacheAPIPut stores a response in the origin's Cache API storage,
	// the persistence anchor of Table III.
	CacheAPIPut(url string, resp *httpsim.Response)
}

// Behavior is a native implementation bound to a marker kind.
type Behavior func(env Env, payload string) error

// Runtime dispatches marker behaviours.
type Runtime struct {
	behaviors map[string]Behavior
}

// NewRuntime returns an empty runtime.
func NewRuntime() *Runtime {
	return &Runtime{behaviors: make(map[string]Behavior)}
}

// Register binds kind to a behaviour. Re-registration replaces silently —
// infection overwrites, as in the attack.
func (r *Runtime) Register(kind string, b Behavior) {
	r.behaviors[kind] = b
}

// Execute runs every marker in content that has a registered behaviour and
// returns how many ran. Unknown marker kinds are skipped (a browser that
// never loaded the parasite bootstrap executes the appended bytes as
// harmless comments). The first behaviour error aborts execution.
func (r *Runtime) Execute(env Env, content []byte) (int, error) {
	ran := 0
	for _, m := range Markers(content) {
		b, ok := r.behaviors[m.Kind]
		if !ok {
			continue
		}
		if err := b(env, m.Payload); err != nil {
			return ran, fmt.Errorf("script behaviour %q: %w", m.Kind, err)
		}
		ran++
	}
	return ran, nil
}
