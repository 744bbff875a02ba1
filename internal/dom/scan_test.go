package dom

import (
	"slices"
	"strings"
	"testing"

	"masterparasite/internal/webcorpus"
)

// scanCases are pages ScanTags must agree with ParseHTML on: every page
// this package's tests parse, plus the tokenizer's corner cases.
var scanCases = []string{
	samplePage,
	`<body><img src='a.png'><input name=user value="v&x"></body>`,
	`<body><div id="a"><p>text`,
	`<body><!-- <script src="/evil.js"></script> --><div id="d"></div></body>`,
	`<body><img src="a.png"><img src="b.png"></body>`,
	`<html><head></head><body><img src="cdn.com/track.svg"></body></html>`,
	"<body><input\nname=user\nvalue=v><img src=a.png\r\nid=logo></body>",
	// Upper-case tags and attribute keys.
	`<HTML LANG=EN><BODY><DIV ID=Main><SCRIPT SRC="/A.js"></SCRIPT></DIV></BODY></HTML>`,
	// Duplicate attributes: the last value wins.
	`<img src=a.png src='b.png' ALT=x Src="c.png">`,
	// A self-closing <script> still swallows raw text up to </script>.
	`<script src="/s.js"/><p id=after>text</p><script>var a = "</p><div id=x>";</script><i>`,
	// An unclosed <script> runs to the end of the input.
	`<body><script>document.write("<div id=x>")`,
	// A stray <>, and tags that are only whitespace.
	`<body><><p>x</p>< ><  /></body>`,
	`<!DOCTYPE html><html lang="en"><!--> <p id=in-comment> --><p id=out></p></html>`,
	`<div><span>a</div>b</span><html id=late><p>`,
	`text <b`,
}

// corpusPages renders the pages of a small synthetic corpus on two study
// days.
func corpusPages() [][]byte {
	var pages [][]byte
	for _, s := range webcorpus.Generate(webcorpus.Params{Sites: 12, Seed: 3}).Sites {
		for _, day := range []int{0, 37} {
			if page, ok := s.AppendPage(nil, day); ok {
				pages = append(pages, page)
			}
		}
	}
	return pages
}

// checkScanMatchesParse fails t unless ScanTags reports the start tags,
// with their attributes, of the tree ParseHTML builds: its Walk order
// minus the synthetic root and minus the <html> tags it merges into
// that root.
func checkScanMatchesParse(t testing.TB, page []byte) {
	t.Helper()
	type startTag struct {
		tag   string
		attrs AttrList
	}
	var want, got []startTag
	ParseHTML("x", page).Root.Walk(func(el *Element) {
		want = append(want, startTag{el.Tag, el.Attrs})
	})
	want = want[1:]
	ScanTags(page, func(tag string, attrs AttrList) {
		if tag != "html" {
			got = append(got, startTag{tag, slices.Clone(attrs)})
		}
	})
	if len(got) != len(want) {
		t.Fatalf("page %q: ScanTags saw %d start tags, ParseHTML built %d elements", page, len(got), len(want))
	}
	for i := range want {
		if got[i].tag != want[i].tag || !slices.Equal(got[i].attrs, want[i].attrs) {
			t.Fatalf("page %q: start tag %d: ScanTags %s %v, ParseHTML %s %v",
				page, i, got[i].tag, got[i].attrs, want[i].tag, want[i].attrs)
		}
	}
}

func TestScanTagsMatchesParseHTML(t *testing.T) {
	checkScanMatchesParse(t, nil)
	for _, page := range scanCases {
		checkScanMatchesParse(t, []byte(page))
	}
	for _, page := range corpusPages() {
		checkScanMatchesParse(t, page)
	}
}

// FuzzScanTags holds ScanTags to ParseHTML on arbitrary bytes: neither
// may panic, and both must see the same start tags.
func FuzzScanTags(f *testing.F) {
	for _, page := range scanCases {
		f.Add([]byte(page))
	}
	for _, page := range corpusPages() {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, page []byte) {
		checkScanMatchesParse(t, page)
	})
}

// TestScanTagsAllocs locks in the tree-free scan's budget: none, since
// it reads the page in place and recycles its attribute scratch.
// Skipped in -short mode: the CI race detector perturbs allocation
// counts.
func TestScanTagsAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	var page []byte
	for _, p := range corpusPages() {
		if strings.Contains(string(p), "<script") {
			page = p
			break
		}
	}
	scripts := 0
	got := testing.AllocsPerRun(200, func() {
		ScanTags(page, func(tag string, _ AttrList) {
			if tag == "script" {
				scripts++
			}
		})
	})
	if scripts == 0 {
		t.Fatal("no <script> tag scanned on a corpus page")
	}
	if got > 0 { // measured with Go 1.24.0
		t.Errorf("ScanTags allocs/op = %.0f, want 0", got)
	}
}
