package dom

import (
	"strings"
	"testing"
)

const samplePage = `<!DOCTYPE html>
<html lang="en">
<head>
  <title>Bank</title>
  <link rel="stylesheet" href="/css/main.css">
  <script src="/js/app.js"></script>
</head>
<body>
  <img src="/img/logo.png" id="logo">
  <form id="login" action="/login">
    <input name="user" value="">
    <input name="pass" type="password" value="">
  </form>
  <iframe src="https://ads.example/frame"></iframe>
  <script>inline();</script>
  <div id="balance">1,234.56 EUR</div>
</body>
</html>`

// resources collects d's subresources through EachResource.
func resources(d *Document) []Resource {
	var out []Resource
	d.EachResource(func(r Resource) { out = append(out, r) })
	return out
}

func TestParseResources(t *testing.T) {
	d := ParseHTML("bank.com/", []byte(samplePage))
	var kinds []string
	for _, r := range resources(d) {
		kinds = append(kinds, r.Kind.String()+":"+r.URL)
	}
	want := []string{
		"stylesheet:/css/main.css",
		"script:/js/app.js",
		"img:/img/logo.png",
		"iframe:https://ads.example/frame",
		"script:", // the inline script, whose source is its element's text
	}
	if strings.Join(kinds, ",") != strings.Join(want, ",") {
		t.Fatalf("resources = %v, want %v", kinds, want)
	}
}

func TestParseInlineScriptText(t *testing.T) {
	d := ParseHTML("x", []byte(samplePage))
	scripts := d.FindByTag("script")
	if len(scripts) != 2 {
		t.Fatalf("scripts = %d, want 2", len(scripts))
	}
	if scripts[1].Text != "inline();" {
		t.Fatalf("inline text = %q", scripts[1].Text)
	}
}

func TestParseAttributeStyles(t *testing.T) {
	d := ParseHTML("x", []byte(`<body><img src='a.png'><input name=user value="v&x"></body>`))
	imgs := d.FindByTag("img")
	if len(imgs) != 1 || imgs[0].Attr("src") != "a.png" {
		t.Fatalf("single-quoted attr: %+v", imgs)
	}
	inputs := d.FindByTag("input")
	if len(inputs) != 1 || inputs[0].Attr("name") != "user" || inputs[0].Attr("value") != "v&x" {
		t.Fatalf("mixed attrs: %+v", inputs)
	}
}

// TestParseAttrsSplitOnLineBreaks pins '\n' and '\r' as attribute
// separators, in both consumers of the tokenizer: a tag written across
// lines keeps every attribute.
func TestParseAttrsSplitOnLineBreaks(t *testing.T) {
	page := []byte("<body><input\nname=user\nvalue=v><img src=a.png\r\nid=logo></body>")
	const want = "name=user value=v src=a.png id=logo"
	var parsed, scanned []string
	ParseHTML("x", page).Root.Walk(func(el *Element) {
		for _, a := range el.Attrs {
			parsed = append(parsed, a.Key+"="+a.Value)
		}
	})
	ScanTags(page, func(_ string, attrs AttrList) {
		for _, a := range attrs {
			scanned = append(scanned, a.Key+"="+a.Value)
		}
	})
	if got := strings.Join(parsed, " "); got != want {
		t.Errorf("ParseHTML attrs = %q, want %q", got, want)
	}
	if got := strings.Join(scanned, " "); got != want {
		t.Errorf("ScanTags attrs = %q, want %q", got, want)
	}
}

func TestParseUnclosedTags(t *testing.T) {
	d := ParseHTML("x", []byte(`<body><div id="a"><p>text`))
	if d.FindByID("a") == nil {
		t.Fatal("unclosed div lost")
	}
	if !strings.Contains(d.Root.TextContent(), "text") {
		t.Fatal("trailing text lost")
	}
}

func TestParseComments(t *testing.T) {
	d := ParseHTML("x", []byte(`<body><!-- <script src="/evil.js"></script> --><div id="d"></div></body>`))
	if len(resources(d)) != 0 {
		t.Fatal("commented-out resource parsed")
	}
	if d.FindByID("d") == nil {
		t.Fatal("element after comment lost")
	}
}

func TestFindByIDAndTag(t *testing.T) {
	d := ParseHTML("x", []byte(samplePage))
	if el := d.FindByID("balance"); el == nil || el.TextContent() != "1,234.56 EUR" {
		t.Fatalf("FindByID(balance) = %+v", el)
	}
	if d.FindByID("nope") != nil {
		t.Fatal("phantom element")
	}
	if len(d.FindByTag("input")) != 2 {
		t.Fatal("FindByTag(input) wrong")
	}
}

func TestFormValuesAndSetValue(t *testing.T) {
	d := ParseHTML("x", []byte(samplePage))
	form := d.FindByID("login")
	SetFormValue(form, "user", "alice")
	SetFormValue(form, "pass", "hunter2")
	v := FormValues(form)
	if v["user"] != "alice" || v["pass"] != "hunter2" {
		t.Fatalf("values = %v", v)
	}
	if SetFormValue(form, "ghost", "x") {
		t.Fatal("SetFormValue invented an input")
	}
}

func TestSubmitHookObservesCredentials(t *testing.T) {
	// The credential-stealing attack of Table V: a parasite hook sees the
	// submitted values before the application does.
	d := ParseHTML("bank.com/login", []byte(samplePage))
	form := d.FindByID("login")
	SetFormValue(form, "user", "alice")
	SetFormValue(form, "pass", "s3cr3t")

	var stolen map[string]string
	d.HookSubmit("login", func(values map[string]string) bool {
		stolen = map[string]string{"user": values["user"], "pass": values["pass"]}
		return true
	})
	var native map[string]string
	d.OnSubmit("login", func(values map[string]string) { native = values })

	if _, ok, err := d.Submit("login"); err != nil || !ok {
		t.Fatalf("submit: ok=%v err=%v", ok, err)
	}
	if stolen["pass"] != "s3cr3t" {
		t.Fatalf("hook saw %v", stolen)
	}
	if native["pass"] != "s3cr3t" {
		t.Fatal("native handler not reached")
	}
}

func TestSubmitHookMutatesValues(t *testing.T) {
	// Transaction manipulation (Table V): the user sees their intended
	// transfer; the bank receives the attacker's.
	d := NewDocument("bank.com/transfer")
	form := NewElement("form")
	form.SetAttr("id", "transfer")
	iban := NewElement("input")
	iban.SetAttr("name", "iban")
	iban.SetAttr("value", "DE11 USER")
	form.Append(iban)
	d.Body().Append(form)

	d.HookSubmit("transfer", func(values map[string]string) bool {
		values["iban"] = "XX99 ATTACKER"
		return true
	})
	var received string
	d.OnSubmit("transfer", func(values map[string]string) { received = values["iban"] })
	if _, ok, err := d.Submit("transfer"); err != nil || !ok {
		t.Fatalf("submit failed: %v", err)
	}
	if received != "XX99 ATTACKER" {
		t.Fatalf("bank received %q", received)
	}
}

func TestSubmitHookCancels(t *testing.T) {
	d := NewDocument("x")
	form := NewElement("form")
	form.SetAttr("id", "f")
	d.Body().Append(form)
	d.HookSubmit("f", func(map[string]string) bool { return false })
	ran := false
	d.OnSubmit("f", func(map[string]string) { ran = true })
	_, ok, err := d.Submit("f")
	if err != nil {
		t.Fatal(err)
	}
	if ok || ran {
		t.Fatal("cancelled submission still ran")
	}
}

func TestSubmitUnknownForm(t *testing.T) {
	d := NewDocument("x")
	if _, _, err := d.Submit("ghost"); err == nil {
		t.Fatal("submit of unknown form succeeded")
	}
}

func TestAppendRemoveReparent(t *testing.T) {
	d := NewDocument("x")
	a := NewElement("div")
	b := NewElement("div")
	d.Body().Append(a)
	a.Append(b)
	if b.Parent() != a {
		t.Fatal("parent wrong")
	}
	d.Body().Append(b) // reparent
	if b.Parent() != d.Body() || len(a.Children) != 0 {
		t.Fatal("reparent failed")
	}
	d.Body().RemoveChild(b)
	if b.Parent() != nil {
		t.Fatal("remove failed")
	}
}

func TestHTMLSerializationRoundTrip(t *testing.T) {
	d := NewDocument("x")
	img := NewElement("img")
	img.SetAttr("src", "cdn.com/track.svg")
	d.Body().Append(img)
	out := ParseHTML("x", d.HTML())
	res := resources(out)
	if len(res) != 1 || res[0].URL != "cdn.com/track.svg" {
		t.Fatalf("round trip resources = %v", res)
	}
}

func TestInjectedScriptBeforeBodyClose(t *testing.T) {
	// §VI-A: for HTML files a <script> tag is inserted before </body>.
	d := ParseHTML("x", []byte(samplePage))
	script := NewElement("script")
	script.SetAttr("src", "/js/app.js?parasite=1")
	d.Body().Append(script)
	res := resources(d)
	last := res[len(res)-1]
	if last.Kind != ResScript || last.URL != "/js/app.js?parasite=1" {
		t.Fatalf("injected script not last: %v", res)
	}
}

func TestIframePropagationVector(t *testing.T) {
	// §VI-B1: the parasite loads target domains via iframes into the DOM;
	// the loader will fetch all of their resources.
	d := NewDocument("infected.com/")
	for _, target := range []string{"bank.com/", "mail.com/"} {
		f := NewElement("iframe")
		f.SetAttr("src", target)
		d.Body().Append(f)
	}
	res := resources(d)
	if len(res) != 2 || res[0].Kind != ResIframe || res[1].Kind != ResIframe {
		t.Fatalf("iframes = %v", res)
	}
}

func TestResourceKindString(t *testing.T) {
	for k, want := range map[ResourceKind]string{
		ResScript: "script", ResImage: "img", ResStylesheet: "stylesheet",
		ResIframe: "iframe", ResourceKind(0): "unknown",
	} {
		if k.String() != want {
			t.Errorf("kind %d = %q, want %q", k, k.String(), want)
		}
	}
}

// TestParseHTMLAllocs locks in the tokenizer's allocation budget so the
// crawl hot path cannot silently regress toward one-map-per-element
// parsing. Skipped in -short mode: the CI race detector perturbs
// allocation counts.
func TestParseHTMLAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	page := []byte(samplePage)
	got := testing.AllocsPerRun(200, func() {
		if d := ParseHTML("bank.com/", page); d == nil {
			t.Fatal("nil document")
		}
	})
	// Measured ~31 on go1.24 — input copy, document, element/attr arena
	// chunks, tree appends, and one concat per interleaved text fragment
	// (this page is whitespace-heavy; a dense corpus page parses in ~14).
	// The historical one-map-per-element parser took twice that.
	if got > 35 {
		t.Errorf("ParseHTML allocs/op = %.0f, want <= 35", got)
	}
}

func TestAttrListSemantics(t *testing.T) {
	el := NewElement("div")
	el.SetAttr("ID", "a")
	el.SetAttr("id", "b") // same key after folding: overwrite, not append
	el.SetAttr("class", "c")
	if got := el.Attr("Id"); got != "b" {
		t.Fatalf("Attr(Id) = %q, want %q", got, "b")
	}
	if len(el.Attrs) != 2 {
		t.Fatalf("attrs = %v, want 2 entries", el.Attrs)
	}
	if el.Attrs.Get("missing") != "" {
		t.Fatal("missing key not empty")
	}
}

// TestParsedElementSetAttrDoesNotClobberSiblings pins the attr-arena
// safety property: growing one parsed element's attribute list must not
// overwrite a neighbouring element's attributes in the shared chunk.
func TestParsedElementSetAttrDoesNotClobberSiblings(t *testing.T) {
	d := ParseHTML("x", []byte(`<body><img src="a.png"><img src="b.png"></body>`))
	imgs := d.FindByTag("img")
	if len(imgs) != 2 {
		t.Fatalf("imgs = %d", len(imgs))
	}
	imgs[0].SetAttr("alt", "first") // append grows the first list
	imgs[0].SetAttr("id", "i0")
	if got := imgs[1].Attr("src"); got != "b.png" {
		t.Fatalf("sibling src = %q after neighbour SetAttr, want b.png", got)
	}
	if imgs[1].Attr("alt") != "" {
		t.Fatal("sibling gained a foreign attribute")
	}
}

func TestHeadAndBodyAutoCreate(t *testing.T) {
	d := &Document{URL: "x", Root: NewElement("html"),
		submitHooks: map[string][]SubmitHook{},
		onSubmit:    map[string]func(map[string]string){}}
	if d.Head() == nil || d.Body() == nil {
		t.Fatal("auto-create failed")
	}
	if len(d.FindByTag("head")) != 1 || len(d.FindByTag("body")) != 1 {
		t.Fatal("duplicate auto-created elements")
	}
}
