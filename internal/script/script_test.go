package script

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/dom"
	"masterparasite/internal/httpsim"
)

func TestNameStripsQuery(t *testing.T) {
	if got := Name("a.com/js/app.js?t=500198"); got != "a.com/js/app.js" {
		t.Fatalf("Name = %q", got)
	}
	if got := Name("a.com/js/app.js"); got != "a.com/js/app.js" {
		t.Fatalf("Name = %q", got)
	}
}

func TestSHA256ChangesWithContent(t *testing.T) {
	a := &Script{URL: "x", Content: []byte("var a=1;")}
	b := &Script{URL: "x", Content: []byte("var a=2;")}
	if a.SHA256() == b.SHA256() {
		t.Fatal("hash collision on different content")
	}
	if a.SHA256() != (&Script{Content: []byte("var a=1;")}).SHA256() {
		t.Fatal("hash not content-determined")
	}
}

func TestEmbedPreservesOriginal(t *testing.T) {
	orig := []byte("function f(){return 42}")
	infected := Embed(orig, "parasite", "p1")
	if !bytes.HasPrefix(infected, orig) {
		t.Fatal("original content not preserved as prefix")
	}
	if !Infected(infected) {
		t.Fatal("Infected = false")
	}
	if Infected(orig) {
		t.Fatal("clean script reported infected")
	}
}

func TestMarkersExtraction(t *testing.T) {
	content := Embed(Embed([]byte("x"), "parasite", "p1"), "cnc", "master.evil")
	ms := Markers(content)
	if len(ms) != 2 {
		t.Fatalf("markers = %v", ms)
	}
	if ms[0] != (Marker{Kind: "parasite", Payload: "p1"}) {
		t.Fatalf("first marker = %+v", ms[0])
	}
	if ms[1] != (Marker{Kind: "cnc", Payload: "master.evil"}) {
		t.Fatalf("second marker = %+v", ms[1])
	}
}

func TestEmbedHTMLBeforeBodyClose(t *testing.T) {
	html := []byte("<html><body><h1>hi</h1></body></html>")
	out := string(EmbedHTML(html, "parasite", "p2"))
	i := strings.Index(out, "<script>")
	j := strings.Index(out, "</body>")
	if i < 0 || j < 0 || i > j {
		t.Fatalf("marker not before </body>: %q", out)
	}
	ms := Markers([]byte(out))
	if len(ms) != 1 || ms[0].Payload != "p2" {
		t.Fatalf("markers = %v", ms)
	}
}

func TestEmbedHTMLWithoutBody(t *testing.T) {
	out := EmbedHTML([]byte("fragment"), "k", "v")
	if len(Markers(out)) != 1 {
		t.Fatal("marker lost")
	}
}

func TestMarkerRoundTripProperty(t *testing.T) {
	isClean := func(s string) bool {
		return !strings.Contains(s, ":") && !strings.Contains(s, "*/") &&
			!strings.Contains(s, "/*")
	}
	f := func(body []byte, kind, payload string) bool {
		if !isClean(kind) || !isClean(payload) || Infected(body) {
			return true // skip inputs that collide with the marker syntax
		}
		ms := Markers(Embed(body, kind, payload))
		return len(ms) == 1 && ms[0].Kind == kind && ms[0].Payload == payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// fakeEnv implements Env for runtime tests.
type fakeEnv struct {
	doc *dom.Document
}

func (f *fakeEnv) Now() time.Duration       { return 0 }
func (f *fakeEnv) PageURL() string          { return "site.com/" }
func (f *fakeEnv) PageHost() string         { return "site.com" }
func (f *fakeEnv) ScriptURL() string        { return "site.com/a.js" }
func (f *fakeEnv) Document() *dom.Document  { return f.doc }
func (f *fakeEnv) UserAgent() string        { return "test" }
func (f *fakeEnv) Cookies(string) string    { return "" }
func (f *fakeEnv) SetCookie(string, string) {}
func (f *fakeEnv) LocalStorage() map[string]string {
	return nil
}
func (f *fakeEnv) Fetch(string, func(*httpsim.Response, error))        {}
func (f *fakeEnv) FetchNoCache(string, func(*httpsim.Response, error)) {}
func (f *fakeEnv) AddIframe(string)                                    {}
func (f *fakeEnv) AddImage(string, func(int, int, bool))               {}
func (f *fakeEnv) CacheAPIPut(string, *httpsim.Response)               {}

var _ Env = (*fakeEnv)(nil)

func TestRuntimeExecutesRegisteredMarkers(t *testing.T) {
	rt := NewRuntime()
	var got []string
	rt.Register("parasite", func(_ Env, payload string) error {
		got = append(got, payload)
		return nil
	})
	content := Embed(Embed([]byte("orig"), "parasite", "a"), "unknown", "b")
	ran, err := rt.Execute(&fakeEnv{}, content)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 1 || len(got) != 1 || got[0] != "a" {
		t.Fatalf("ran=%d got=%v", ran, got)
	}
}

func TestRuntimeCleanScriptNoop(t *testing.T) {
	rt := NewRuntime()
	rt.Register("parasite", func(Env, string) error {
		t.Fatal("behaviour ran on clean script")
		return nil
	})
	ran, err := rt.Execute(&fakeEnv{}, []byte("plain js"))
	if err != nil || ran != 0 {
		t.Fatalf("ran=%d err=%v", ran, err)
	}
}

func TestRuntimeErrorAborts(t *testing.T) {
	rt := NewRuntime()
	boom := errors.New("boom")
	calls := 0
	rt.Register("p", func(Env, string) error {
		calls++
		return boom
	})
	content := Embed(Embed(nil, "p", "1"), "p", "2")
	ran, err := rt.Execute(&fakeEnv{}, content)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if ran != 0 || calls != 1 {
		t.Fatalf("ran=%d calls=%d", ran, calls)
	}
}

func TestEmbeddedMarkerSurvivesHTMLParse(t *testing.T) {
	// The marker travels inside a <script> element; the DOM parser must
	// keep its text intact so the executor can find it.
	html := EmbedHTML([]byte("<html><body><p>x</p></body></html>"), "parasite", "p9")
	d := dom.ParseHTML("site.com/", html)
	scripts := d.FindByTag("script")
	if len(scripts) != 1 {
		t.Fatalf("scripts = %d", len(scripts))
	}
	ms := Markers([]byte(scripts[0].Text))
	if len(ms) != 1 || ms[0].Payload != "p9" {
		t.Fatalf("marker lost in DOM: %v", ms)
	}
}
