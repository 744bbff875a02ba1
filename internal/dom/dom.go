// Package dom implements the minimal document object model that the
// parasite scripts manipulate (§VII): an element tree parsed from HTML,
// attribute access, form input fields with hookable submit events, and
// iframe and resource discovery. "JS has complete read and write access
// to the DOM, and the submit events can be hooked" — this package
// provides exactly that capability surface.
package dom

import (
	"fmt"
	"strings"
)

// voidTags never contain children.
var voidTags = map[string]bool{
	"img": true, "link": true, "input": true, "meta": true,
	"br": true, "hr": true, "source": true,
}

// Attr is one element attribute.
type Attr struct {
	Key   string // always lower-case
	Value string
}

// AttrList stores an element's attributes in insertion order. Elements
// carry a handful of attributes at most, so a scanned slice beats a
// hash map on both lookup time and allocation — the parser carves
// lists out of a shared arena instead of allocating one map per
// element.
type AttrList []Attr

// Get returns the value stored under the (already lower-case) key, or
// "".
func (a AttrList) Get(key string) string {
	for i := range a {
		if a[i].Key == key {
			return a[i].Value
		}
	}
	return ""
}

// set updates an existing key in place or appends a new one.
func (a AttrList) set(key, value string) AttrList {
	for i := range a {
		if a[i].Key == key {
			a[i].Value = value
			return a
		}
	}
	return append(a, Attr{Key: key, Value: value})
}

// Element is one node in the document tree.
type Element struct {
	Tag      string
	Attrs    AttrList
	Children []*Element
	Text     string // text content directly inside this element
	parent   *Element
}

// NewElement creates a detached element. The attribute list is
// allocated lazily by the first SetAttr.
func NewElement(tag string) *Element {
	return &Element{Tag: lowerASCII(tag)}
}

// Attr returns an attribute value ("" when absent).
func (e *Element) Attr(name string) string { return e.Attrs.Get(lowerASCII(name)) }

// SetAttr sets an attribute.
func (e *Element) SetAttr(name, value string) {
	e.Attrs = e.Attrs.set(lowerASCII(name), value)
}

// Append adds child to e, detaching it from any previous parent.
func (e *Element) Append(child *Element) {
	if child.parent != nil {
		child.parent.RemoveChild(child)
	}
	child.parent = e
	e.Children = append(e.Children, child)
}

// RemoveChild detaches child from e.
func (e *Element) RemoveChild(child *Element) {
	for i, c := range e.Children {
		if c == child {
			e.Children = append(e.Children[:i], e.Children[i+1:]...)
			child.parent = nil
			return
		}
	}
}

// Parent returns the parent element (nil for roots).
func (e *Element) Parent() *Element { return e.parent }

// Walk visits e and every descendant in document order.
func (e *Element) Walk(fn func(*Element)) {
	fn(e)
	for _, c := range e.Children {
		c.Walk(fn)
	}
}

// Find returns all descendants (including e) matching pred.
func (e *Element) Find(pred func(*Element) bool) []*Element {
	var out []*Element
	e.Walk(func(el *Element) {
		if pred(el) {
			out = append(out, el)
		}
	})
	return out
}

// first returns the first element of e's subtree (e included), in
// document order, that matches pred, or nil: Find(pred)[0] without
// walking past the match.
func (e *Element) first(pred func(*Element) bool) *Element {
	if pred(e) {
		return e
	}
	for _, c := range e.Children {
		if m := c.first(pred); m != nil {
			return m
		}
	}
	return nil
}

// TextContent concatenates the element's text and all descendant text.
func (e *Element) TextContent() string {
	var b strings.Builder
	e.Walk(func(el *Element) { b.WriteString(el.Text) })
	return b.String()
}

// Document is a parsed page.
type Document struct {
	URL  string
	Root *Element

	// Both hook maps are allocated lazily on first registration: most
	// parsed documents (every page of a crawl) never hook anything.
	submitHooks map[string][]SubmitHook // form id → hooks (parasite's hooks run first)
	onSubmit    map[string]func(map[string]string)
}

// SubmitHook observes and may mutate form values before native submission.
// Returning false cancels the submission — used by the transaction-
// manipulation attack to swap in the attacker's transfer while showing the
// user their own (§VII).
type SubmitHook func(values map[string]string) bool

// NewDocument creates an empty document with the html/head/body skeleton.
func NewDocument(url string) *Document {
	root := NewElement("html")
	root.Append(NewElement("head"))
	root.Append(NewElement("body"))
	return &Document{URL: url, Root: root}
}

// Body returns the first <body> element in document order, appending
// one to the root when there is none.
func (d *Document) Body() *Element {
	if b := d.Root.first(func(e *Element) bool { return e.Tag == "body" }); b != nil {
		return b
	}
	b := NewElement("body")
	d.Root.Append(b)
	return b
}

// FindByID returns the first element with the given id, in document
// order, or nil.
func (d *Document) FindByID(id string) *Element {
	return d.Root.first(func(e *Element) bool { return e.Attr("id") == id })
}

// FindByTag returns all elements with the given tag.
func (d *Document) FindByTag(tag string) []*Element {
	tag = strings.ToLower(tag)
	return d.Root.Find(func(e *Element) bool { return e.Tag == tag })
}

// ResourceKind classifies subresources a page pulls in.
type ResourceKind int

// Resource kinds, in the order a loader fetches them.
const (
	ResScript ResourceKind = iota + 1
	ResImage
	ResStylesheet
	ResIframe
)

// String names the kind.
func (k ResourceKind) String() string {
	switch k {
	case ResScript:
		return "script"
	case ResImage:
		return "img"
	case ResStylesheet:
		return "stylesheet"
	case ResIframe:
		return "iframe"
	default:
		return "unknown"
	}
}

// Resource is one subresource reference found in the document. URL is
// the reference as written; it is empty for an inline script, whose
// source is El.Text.
type Resource struct {
	Kind ResourceKind
	URL  string
	El   *Element
}

// EachResource calls fn for every subresource in document order: scripts
// (external, and inline ones with text), images, stylesheets and
// iframes. It is the one rule for what a page pulls in, and builds
// nothing per page.
func (d *Document) EachResource(fn func(Resource)) {
	d.Root.Walk(func(e *Element) {
		switch e.Tag {
		case "script":
			if src := e.Attr("src"); src != "" {
				fn(Resource{Kind: ResScript, URL: src, El: e})
			} else if e.Text != "" {
				fn(Resource{Kind: ResScript, El: e})
			}
		case "img":
			if src := e.Attr("src"); src != "" {
				fn(Resource{Kind: ResImage, URL: src, El: e})
			}
		case "link":
			if e.Attr("rel") == "stylesheet" {
				if href := e.Attr("href"); href != "" {
					fn(Resource{Kind: ResStylesheet, URL: href, El: e})
				}
			}
		case "iframe":
			if src := e.Attr("src"); src != "" {
				fn(Resource{Kind: ResIframe, URL: src, El: e})
			}
		}
	})
}

// FormValues collects the input name→value pairs of a form element.
func FormValues(form *Element) map[string]string {
	values := make(map[string]string)
	form.Walk(func(e *Element) {
		if e.Tag == "input" || e.Tag == "textarea" || e.Tag == "select" {
			if name := e.Attr("name"); name != "" {
				values[name] = e.Attr("value")
			}
		}
	})
	return values
}

// SetFormValue sets the value of the named input inside form.
func SetFormValue(form *Element, name, value string) bool {
	ok := false
	form.Walk(func(e *Element) {
		if (e.Tag == "input" || e.Tag == "textarea") && e.Attr("name") == name {
			e.SetAttr("value", value)
			ok = true
		}
	})
	return ok
}

// HookSubmit registers a hook that runs before native submission of the
// form with the given id. Hooks run in registration order; any hook
// returning false cancels the submission.
func (d *Document) HookSubmit(formID string, hook SubmitHook) {
	if d.submitHooks == nil {
		d.submitHooks = make(map[string][]SubmitHook)
	}
	d.submitHooks[formID] = append(d.submitHooks[formID], hook)
}

// OnSubmit installs the application's native submit handler for a form.
func (d *Document) OnSubmit(formID string, fn func(values map[string]string)) {
	if d.onSubmit == nil {
		d.onSubmit = make(map[string]func(map[string]string))
	}
	d.onSubmit[formID] = fn
}

// Submit simulates the user submitting the form: hooks observe/mutate the
// values, then the native handler receives the (possibly mutated) result.
// It returns the values actually submitted and whether submission ran.
func (d *Document) Submit(formID string) (map[string]string, bool, error) {
	form := d.FindByID(formID)
	if form == nil || form.Tag != "form" {
		return nil, false, fmt.Errorf("dom: no form with id %q", formID)
	}
	values := FormValues(form)
	for _, hook := range d.submitHooks[formID] {
		if !hook(values) {
			return values, false, nil
		}
	}
	if fn, ok := d.onSubmit[formID]; ok && fn != nil {
		fn(values)
	}
	return values, true, nil
}
