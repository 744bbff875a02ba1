package browser

import (
	"time"

	"masterparasite/internal/dom"
	"masterparasite/internal/httpcache"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/script"
)

// pageEnv is the sandbox a script executes in: it implements script.Env
// with Same-Origin-Policy semantics. The parasite never breaks these rules
// — it wins because it *runs inside* every origin whose object it
// infected.
type pageEnv struct {
	loader    *loader
	scriptURL string
}

var _ script.Env = (*pageEnv)(nil)

func (e *pageEnv) browser() *Browser { return e.loader.b }
func (e *pageEnv) page() *Page       { return e.loader.page }

// Now returns the virtual clock.
func (e *pageEnv) Now() time.Duration { return e.browser().net.Now() }

// PageURL returns the containing page's URL.
func (e *pageEnv) PageURL() string { return e.page().URL }

// PageHost returns the SOP origin of the containing page.
func (e *pageEnv) PageHost() string { return e.page().Host }

// ScriptURL returns the URL the script was loaded from.
func (e *pageEnv) ScriptURL() string { return e.scriptURL }

// Document grants full DOM access — the capability Table V's attacks
// build on.
func (e *pageEnv) Document() *dom.Document { return e.page().Doc }

// UserAgent identifies the browser.
func (e *pageEnv) UserAgent() string { return e.browser().Profile.UserAgent() }

// Cookies implements document.cookie under the SOP: only the page's own
// origin is readable.
func (e *pageEnv) Cookies(domain string) string {
	if domain != e.page().Host {
		return ""
	}
	return e.browser().cookies.All(domain)
}

// SetCookie writes a cookie for the page origin.
func (e *pageEnv) SetCookie(name, value string) {
	e.browser().cookies.Set(e.page().Host, name, value)
}

// LocalStorage returns the page origin's live storage map.
func (e *pageEnv) LocalStorage() map[string]string {
	return e.browser().LocalStorage(e.page().Host)
}

// Fetch issues a cache-aware request. Cross-origin responses are opaque:
// the body is stripped before the script sees it (but the fetch still
// populated the cache — which is all the propagation module needs).
func (e *pageEnv) Fetch(url string, cb func(*httpsim.Response, error)) {
	e.fetchInternal(url, fetchOpts{}, cb)
}

// FetchNoCache bypasses both caches; with a cache-buster query this is
// Fig. 2 step 3, the reload of the original object.
func (e *pageEnv) FetchNoCache(url string, cb func(*httpsim.Response, error)) {
	e.fetchInternal(url, fetchOpts{bypassCache: true, bypassCacheAPI: true}, cb)
}

func (e *pageEnv) fetchInternal(url string, opts fetchOpts, cb func(*httpsim.Response, error)) {
	url = normalizeURL(e.page().Host, url)
	if !e.loader.cspAllows("connect-src", url) {
		cb(nil, ErrBlockedByCSP)
		return
	}
	crossOrigin := hostOf(url) != e.page().Host
	e.browser().fetch(e.page().Host, url, opts, func(resp *httpsim.Response, err error) {
		if err != nil {
			cb(nil, err)
			return
		}
		if crossOrigin && resp.Header.Get("Access-Control-Allow-Origin") != "*" {
			cb(httpsim.NewResponse(resp.StatusCode, nil), nil)
			return
		}
		cb(resp, nil)
	})
}

// AddIframe appends an iframe and loads the framed page with all its
// subresources — the §VI-B1 cross-domain propagation vector.
func (e *pageEnv) AddIframe(url string) {
	url = normalizeURL(e.page().Host, url)
	el := dom.NewElement("iframe")
	el.SetAttr("src", url)
	e.page().Doc.Body().Append(el)
	e.loader.enqueue(job{kind: dom.ResIframe, url: url, el: el})
}

// AddImage appends an img element; onload receives the dimensions, the
// covert channel's downstream alphabet.
func (e *pageEnv) AddImage(url string, onload func(width, height int, ok bool)) {
	url = normalizeURL(e.page().Host, url)
	el := dom.NewElement("img")
	el.SetAttr("src", url)
	e.page().Doc.Body().Append(el)
	e.loader.enqueue(job{kind: dom.ResImage, url: url, el: el, onImg: onload})
}

// CacheAPIPut anchors a response in the Cache API store (Table III
// persistence).
func (e *pageEnv) CacheAPIPut(url string, resp *httpsim.Response) {
	url = normalizeURL(e.page().Host, url)
	entry := httpcache.EntryFromResponse(e.Now(), url, hostOf(url), resp)
	if entry == nil {
		// Cache API storage ignores no-store; store anyway.
		clean := resp.Clone()
		clean.Header.Set("Cache-Control", "max-age=31536000")
		entry = httpcache.EntryFromResponse(e.Now(), url, hostOf(url), clean)
	}
	e.browser().cacheAPI.Put(entry)
}
