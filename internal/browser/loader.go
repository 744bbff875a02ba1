package browser

import (
	"fmt"
	"strings"

	"masterparasite/internal/cnc"
	"masterparasite/internal/dom"
	"masterparasite/internal/script"
)

// maxFrameDepth bounds recursive iframe loading.
const maxFrameDepth = 3

// Page is one loaded document with everything the loader pulled in.
type Page struct {
	URL  string
	Host string
	Doc  *dom.Document
	CSP  CSP
	// Scripts lists every script body that was fetched and considered
	// for execution, in order.
	Scripts []*script.Script
	// Frames lists pages loaded through iframes (§VI-B1 propagation).
	Frames []*Page
	// ExecErrors collects script behaviour failures (the page survives).
	ExecErrors []error

	browser *Browser
	loader  *loader
}

// VisitOpts tunes a page load.
type VisitOpts struct {
	// HardReload bypasses the HTTP cache (Ctrl+F5). Cache-API-anchored
	// content still serves — the Table III result.
	HardReload bool
	// OnDocument runs after the HTML is parsed but before subresources
	// load and scripts execute — where an application's server-delivered
	// inline wiring (form submit handlers) takes effect.
	OnDocument func(*Page)
}

// VisitWith loads host+path as a top-level navigation with explicit
// options. cb runs inside the event loop once every subresource has
// settled.
func (b *Browser) VisitWith(host, path string, opts VisitOpts, cb func(*Page, error)) {
	b.visit(host, path, opts, 0, cb)
}

func (b *Browser) visit(host, path string, opts VisitOpts, depth int, cb func(*Page, error)) {
	fo := fetchOpts{bypassCache: opts.HardReload}
	b.fetch(host, host+path, fo, func(res fetchResult, err error) {
		if err != nil {
			cb(nil, fmt.Errorf("visit %s%s: %w", host, path, err))
			return
		}
		doc := dom.ParseHTML(host+path, res.resp.Body)
		page := &Page{
			URL:     host + path,
			Host:    host,
			Doc:     doc,
			CSP:     CSPFromHeaders(res.resp.Header.Get),
			browser: b,
		}
		l := &loader{b: b, page: page, opts: fo, depth: depth, onDone: cb}
		l.stepFn = l.step
		page.loader = l
		if opts.OnDocument != nil {
			opts.OnDocument(page)
		}
		l.enqueueDocument(doc)
		l.step()
	})
}

// job is one pending subresource load.
type job struct {
	kind   dom.ResourceKind
	url    string
	el     *dom.Element
	inline []byte
	onImg  func(w, h int, ok bool)
}

type loader struct {
	b     *Browser
	page  *Page
	opts  fetchOpts
	depth int

	queue     []job
	running   bool
	doneFired bool
	onDone    func(*Page, error)
	stepFn    func() // l.step, bound once: every resume schedules it
}

// enqueueDocument queues the document's subresources, external and
// inline, in document order.
func (l *loader) enqueueDocument(doc *dom.Document) {
	doc.EachResource(func(r dom.Resource) {
		j := job{kind: r.Kind, el: r.El}
		if r.URL != "" {
			j.url = normalizeURL(l.page.Host, r.URL)
		} else {
			j.inline = []byte(r.El.Text)
		}
		l.queue = append(l.queue, j)
	})
}

// enqueue adds a dynamic job (from script execution) and resumes.
func (l *loader) enqueue(j job) {
	l.queue = append(l.queue, j)
	l.step()
}

func (l *loader) finish(err error) {
	if l.doneFired {
		return
	}
	l.doneFired = true
	if l.onDone != nil {
		l.onDone(l.page, err)
	}
}

// resume ends the running job and re-enters step via the event loop,
// so the callback stack stays flat.
func (l *loader) resume() {
	l.running = false
	l.b.net.Schedule(0, l.stepFn)
}

// step processes the queue one job at a time; each completion resumes.
func (l *loader) step() {
	if l.running {
		return
	}
	if len(l.queue) == 0 {
		l.finish(nil)
		return
	}
	j := l.queue[0]
	l.queue = l.queue[1:]
	l.running = true
	switch {
	case j.kind == dom.ResScript && j.inline != nil:
		l.execScript(j, j.inline)
		l.resume()
	case j.kind == dom.ResScript:
		if !l.cspAllows("script-src", j.url) {
			l.resume()
			return
		}
		if l.b.DefenseRandomQuery && !strings.Contains(j.url, "?") {
			// §VIII countermeasure: every script request carries a unique
			// query, so the (possibly poisoned) cached copy is never hit.
			l.b.defenseCounter++
			j.url = fmt.Sprintf("%s?fresh=%d", j.url, l.b.defenseCounter)
		}
		l.b.fetch(l.page.Host, j.url, l.opts, func(res fetchResult, err error) {
			if err == nil {
				l.execScript(j, res.resp.Body)
			}
			l.resume()
		})
	case j.kind == dom.ResImage:
		if !l.cspAllows("img-src", j.url) {
			if j.onImg != nil {
				j.onImg(0, 0, false)
			}
			l.resume()
			return
		}
		l.b.fetch(l.page.Host, j.url, l.opts, func(res fetchResult, err error) {
			if j.onImg != nil {
				if err != nil {
					j.onImg(0, 0, false)
				} else {
					w, h := imageDims(res.resp.Body)
					j.onImg(w, h, true)
				}
			}
			l.resume()
		})
	case j.kind == dom.ResStylesheet:
		l.b.fetch(l.page.Host, j.url, l.opts, func(fetchResult, error) { l.resume() })
	case j.kind == dom.ResIframe:
		if l.depth >= maxFrameDepth || !l.cspAllows("frame-src", j.url) {
			l.resume()
			return
		}
		l.b.visit(hostOf(j.url), pathOf(j.url), VisitOpts{HardReload: l.opts.bypassCache},
			l.depth+1, func(sub *Page, err error) {
				if err == nil && sub != nil {
					l.page.Frames = append(l.page.Frames, sub)
				}
				l.resume()
			})
	default:
		l.resume()
	}
}

func (l *loader) cspAllows(directive, url string) bool {
	if l.page.CSP.Allows(directive, hostOf(url), l.page.Host) {
		return true
	}
	l.b.cspBlocked++
	return false
}

// execScript applies SRI, records the script, and dispatches behaviours.
func (l *loader) execScript(j job, content []byte) {
	sc := &script.Script{Content: content}
	if j.url != "" {
		sc.URL = j.url
	} else {
		sc.URL = l.page.URL + "#inline"
	}
	if j.el != nil {
		if integrity := j.el.Attr("integrity"); integrity != "" {
			want := strings.TrimPrefix(integrity, "sha256-")
			if sc.SHA256() != want {
				l.b.sriBlocked++
				return // SRI blocks execution of the tampered script
			}
		}
	}
	l.page.Scripts = append(l.page.Scripts, sc)
	env := &pageEnv{loader: l, scriptURL: sc.URL}
	if _, err := l.b.runtime.Execute(env, content); err != nil {
		l.page.ExecErrors = append(l.page.ExecErrors, err)
	}
}

// imageDims extracts the cross-origin-visible dimensions of an image
// body. SVG channel images decode exactly; anything else reports 1x1
// (a tracking pixel's worth of information).
func imageDims(body []byte) (int, int) {
	if d, err := cnc.ParseSVG(body); err == nil {
		return int(d.W), int(d.H)
	}
	return 1, 1
}
