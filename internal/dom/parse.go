package dom

import (
	"strings"
	"sync"
	"unsafe"
)

// ParseHTML builds a document from HTML bytes. The parser is tolerant:
// unclosed tags are closed at end of input, mismatched closers pop to the
// nearest matching ancestor, and attribute values may be quoted with
// single quotes, double quotes, or nothing. It is sufficient for the
// synthetic corpus and the simulated applications — and, importantly, for
// whatever bytes an attacker injects.
//
// ParseHTML is the tree builder over the package's one tokenizer, which
// ScanTags shares. It copies the input once, because the tree outlives
// the call: every tag name, attribute, and text fragment is a substring
// of that copy, elements come from a chunked arena, and
// lowercasing/case-folding never allocates on the (overwhelmingly
// common) already-lowercase path.
func ParseHTML(url string, content []byte) *Document {
	d := &Document{URL: url}
	var arena elemArena
	var attrs attrWriter
	root := arena.new("html")
	d.Root = root

	stack := []*Element{root}
	z := tokenizer{s: string(content)}
	for {
		tok := z.next(&attrs)
		top := stack[len(stack)-1]
		switch tok.kind {
		case tokenEOF:
			return d
		case tokenText:
			top.Text += tok.text
		case tokenEndTag:
			for n := len(stack) - 1; n > 0; n-- {
				// ASCII fold only, matching the </script> scan: Unicode
				// fold pairs must not close an element.
				if len(stack[n].Tag) == len(tok.name) && foldEq(stack[n].Tag, tok.name) {
					stack = stack[:n]
					break
				}
			}
		case tokenStartTag:
			if tok.name == "html" {
				// Merge attributes into the existing root instead of
				// nesting a second html element.
				for _, a := range tok.attrs {
					root.SetAttr(a.Key, a.Value)
				}
				continue
			}
			el := arena.new(tok.name)
			el.Attrs = tok.attrs
			el.Text = tok.text
			top.Append(el)
			if tok.name != "script" && !tok.selfClose && !voidTags[tok.name] {
				stack = append(stack, el)
			}
		}
	}
}

// ScanTags calls fn for every start tag in content, in document order,
// without building a tree: the elements ParseHTML would build, in its
// Walk order, plus the <html> tags it merges into its root. It shares
// ParseHTML's tokenizer, so tag names and attribute keys are lower-case,
// a duplicate attribute keeps its last value, and markup inside a
// <script> is raw text, never a tag.
//
// ScanTags reads content in place, without a copy, so tag and the
// strings in attrs may alias content, and attrs itself is scratch that
// the next tag overwrites: all of them are valid only during fn. A
// caller that keeps a string clones it, or keeps a content buffer that
// nothing rewrites. Empty content has no tags.
func ScanTags(content []byte, fn func(tag string, attrs AttrList)) {
	w := scanScratch.Get().(*attrWriter)
	z := tokenizer{s: unsafe.String(unsafe.SliceData(content), len(content))}
	for tok := z.next(w); tok.kind != tokenEOF; tok = z.next(w) {
		if tok.kind == tokenStartTag {
			fn(tok.name, tok.attrs)
			w.buf = w.buf[:0]
		}
	}
	scanScratch.Put(w)
}

// scanScratch recycles the attribute list ScanTags hands its callback.
var scanScratch = sync.Pool{New: func() any { return new(attrWriter) }}

// tokenKind classifies a token.
type tokenKind uint8

const (
	tokenEOF tokenKind = iota
	tokenText
	tokenStartTag
	tokenEndTag
)

// token is one lexical unit of a page.
type token struct {
	kind tokenKind
	// name is a start tag's lower-cased name, or an end tag's name as
	// written, trimmed.
	name string
	// text is a text token's content, or a <script> start tag's raw
	// text up to its closer.
	text string
	// attrs are a start tag's attributes, carved from the attrWriter
	// passed to next.
	attrs     AttrList
	selfClose bool // the start tag was written "<name ... />"
}

// tokenizer is the HTML lexer behind ParseHTML and ScanTags. It skips
// comments and doctypes, consumes a <script>'s content as raw text (so
// markup inside a script never becomes a tag), and parses attributes.
// Every string it emits is a substring of s.
type tokenizer struct {
	s string
	i int // read offset into s
}

// next returns the next token, parsing a start tag's attributes into w.
func (z *tokenizer) next(w *attrWriter) token {
	s := z.s
	for z.i < len(s) {
		i := z.i
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			z.i = len(s)
			return token{kind: tokenText, text: s[i:]}
		}
		if lt > 0 {
			z.i = i + lt
			return token{kind: tokenText, text: s[i : i+lt]}
		}
		gt := strings.IndexByte(s[i:], '>')
		if gt < 0 {
			z.i = len(s)
			return token{kind: tokenText, text: s[i:]}
		}
		tag := s[i+1 : i+gt]
		z.i = i + gt + 1
		switch {
		case strings.HasPrefix(tag, "!--"):
			// Comment: skip to the closing marker if the '>' we found was
			// not it.
			if !strings.HasSuffix(tag, "--") {
				if end := strings.Index(s[z.i:], "-->"); end >= 0 {
					z.i += end + 3
				} else {
					z.i = len(s)
				}
			}
		case strings.HasPrefix(tag, "!"):
			// Doctype: ignore.
		case strings.HasPrefix(tag, "/"):
			return token{kind: tokenEndTag, name: strings.TrimSpace(tag[1:])}
		default:
			if tok, ok := z.startTag(tag, w); ok {
				return tok
			}
		}
	}
	return token{kind: tokenEOF}
}

// startTag parses what lies between a start tag's angle brackets,
// "name attr=val attr2='v'" with an optional trailing "/". A tag with
// no name, such as a stray "<>", is not a token.
func (z *tokenizer) startTag(raw string, w *attrWriter) (token, bool) {
	tok := token{kind: tokenStartTag}
	if strings.HasSuffix(raw, "/") {
		tok.selfClose = true
		raw = raw[:len(raw)-1]
	}
	raw = strings.TrimSpace(raw)
	if raw == "" {
		return tok, false
	}
	name, rest := raw, ""
	for i := 0; i < len(raw); i++ {
		if isSpace(raw[i]) {
			name, rest = raw[:i], raw[i:]
			break
		}
	}
	tok.name = lowerASCII(name)
	if rest != "" {
		w.begin()
		parseAttrs(w, rest)
		tok.attrs = w.finish()
	}
	if tok.name == "script" {
		// Raw-text element: consume everything to </script>.
		if end := indexFold(z.s[z.i:], "</script>"); end >= 0 {
			tok.text = z.s[z.i : z.i+end]
			z.i += end + len("</script>")
		} else {
			tok.text = z.s[z.i:]
			z.i = len(z.s)
		}
	}
	return tok, true
}

// arenaChunk is how many elements one arena allocation holds; a typical
// corpus page has a few dozen.
const arenaChunk = 32

// elemArena hands out elements from chunked backing arrays, so a parse
// costs O(elements/arenaChunk) element allocations instead of one per
// element. Chunks are never appended past capacity, so handed-out
// pointers stay valid.
type elemArena struct {
	buf []Element
}

func (a *elemArena) new(tag string) *Element {
	if len(a.buf) == cap(a.buf) {
		a.buf = make([]Element, 0, arenaChunk)
	}
	a.buf = a.buf[:len(a.buf)+1]
	el := &a.buf[len(a.buf)-1]
	el.Tag = tag
	return el
}

// lowerASCII returns s lowercased, allocating only when s actually
// contains an upper-case ASCII letter.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

// indexFold returns the index of the first ASCII-case-insensitive
// occurrence of sep in s, without lowercasing (and thus copying) s.
func indexFold(s, sep string) int {
	if len(sep) == 0 {
		return 0
	}
	for i := 0; i+len(sep) <= len(s); i++ {
		if foldEq(s[i:i+len(sep)], sep) {
			return i
		}
	}
	return -1
}

// foldEq reports whether two equal-length strings match ignoring ASCII
// case.
func foldEq(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// attrChunk is how many attributes one arena allocation holds, and
// attrReserve the headroom begin guarantees a single element — elements
// with at most attrReserve attributes never migrate chunks.
const (
	attrChunk   = 64
	attrReserve = 8
)

// attrWriter carves per-element AttrLists out of chunked backing
// arrays. Handed-out lists are full-capacity subslices, so a later
// SetAttr on the element reallocates instead of clobbering a
// neighbouring element's attributes.
type attrWriter struct {
	buf   []Attr
	start int // where the current element's attributes begin
}

// begin opens a new element, rolling to a fresh chunk when the current
// one cannot fit a typical element.
func (w *attrWriter) begin() {
	if cap(w.buf)-len(w.buf) < attrReserve {
		w.buf = make([]Attr, 0, attrChunk)
	}
	w.start = len(w.buf)
}

// add appends one attribute for the current element, updating in place
// on a duplicate key. An element overflowing its chunk migrates to a
// fresh one so its list stays contiguous.
func (w *attrWriter) add(key, value string) {
	for i := w.start; i < len(w.buf); i++ {
		if w.buf[i].Key == key {
			w.buf[i].Value = value
			return
		}
	}
	if len(w.buf) == cap(w.buf) {
		nbuf := make([]Attr, len(w.buf)-w.start, cap(w.buf)*2)
		copy(nbuf, w.buf[w.start:])
		w.buf = nbuf
		w.start = 0
	}
	w.buf = append(w.buf, Attr{Key: key, Value: value})
}

// finish closes the current element and returns its (possibly empty)
// attribute list.
func (w *attrWriter) finish() AttrList {
	if len(w.buf) == w.start {
		return nil
	}
	return w.buf[w.start:len(w.buf):len(w.buf)]
}

// isSpace reports whether c separates a tag's name and attributes.
func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// parseAttrs parses "attr=val attr2='v' flag" into w.
func parseAttrs(w *attrWriter, s string) {
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			return
		}
		// Attribute name.
		start := i
		for i < len(s) && s[i] != '=' && !isSpace(s[i]) {
			i++
		}
		name := s[start:i]
		if name == "" {
			i++
			continue
		}
		// Optional value.
		value := ""
		if i < len(s) && s[i] == '=' {
			i++
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				vstart := i
				for i < len(s) && s[i] != quote {
					i++
				}
				value = s[vstart:i]
				if i < len(s) {
					i++
				}
			} else {
				vstart := i
				for i < len(s) && !isSpace(s[i]) {
					i++
				}
				value = s[vstart:i]
			}
		}
		w.add(lowerASCII(name), value)
	}
}
