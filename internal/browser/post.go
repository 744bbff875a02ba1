package browser

import (
	"sort"
	"strings"

	"masterparasite/internal/httpsim"
)

// Post issues a form submission from this page's context, like an XHR:
// cookies attached, response cookies absorbed, nothing cached. cb runs
// inside the event loop. The path is resolved against the page host.
func (p *Page) Post(path string, form map[string]string, cb func(*httpsim.Response, error)) {
	b := p.browser
	if b.oomKilled {
		cb(nil, ErrBrowserKilled)
		return
	}
	url := normalizeURL(p.Host, path)
	req := httpsim.NewRequest("POST", hostOf(url), pathOf(url))
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	req.Body = []byte(EncodeForm(form))
	b.send(req, func(resp *httpsim.Response, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		b.absorb(req.Host, resp)
		cb(resp, nil)
	})
}

// EncodeForm renders form values as application/x-www-form-urlencoded
// with deterministic key order. Values are assumed token-safe (the
// simulated applications use plain identifiers).
func EncodeForm(form map[string]string) string {
	keys := make([]string, 0, len(form))
	for k := range form {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, k+"="+strings.ReplaceAll(form[k], "&", "%26"))
	}
	return strings.Join(parts, "&")
}

// DecodeForm reverses EncodeForm.
func DecodeForm(body []byte) map[string]string {
	out := make(map[string]string)
	for _, kv := range strings.Split(string(body), "&") {
		if kv == "" {
			continue
		}
		k, v, _ := strings.Cut(kv, "=")
		out[k] = strings.ReplaceAll(v, "%26", "&")
	}
	return out
}
