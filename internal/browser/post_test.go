package browser

import (
	"strings"
	"testing"

	"masterparasite/internal/httpsim"
)

func TestPagePostSendsFormAndCookies(t *testing.T) {
	w := newWeb(t)
	w.addPage("shop.com", "/", `<html><body><form id="buy"></form></body></html>`, nil)
	b := w.browser(t, "Chrome")
	b.Cookies().Set("shop.com", "sid", "abc")

	var page *Page
	b.VisitWith("shop.com", "/", VisitOpts{}, func(p *Page, err error) {
		if err != nil {
			t.Errorf("visit: %v", err)
			return
		}
		page = p
	})
	w.net.Run(0)
	if page == nil {
		t.Fatal("no page")
	}
	var resp *httpsim.Response
	page.Post("/buy", map[string]string{"item": "42", "qty": "3"}, func(r *httpsim.Response, err error) {
		if err != nil {
			t.Errorf("post: %v", err)
			return
		}
		resp = r
	})
	w.net.Run(0)
	// The fixture's 404 is fine: the assertion is on what the server saw.
	if resp == nil {
		t.Fatal("no post response")
	}
	if w.served["shop.com/buy"] != 1 {
		t.Fatalf("server saw %d posts", w.served["shop.com/buy"])
	}
}

func TestFormCodec(t *testing.T) {
	in := map[string]string{"b": "2", "a": "1&x"}
	enc := EncodeForm(in)
	if !strings.HasPrefix(enc, "a=") {
		t.Fatalf("keys not sorted: %q", enc)
	}
	out := DecodeForm([]byte(enc))
	if out["a"] != "1&x" || out["b"] != "2" {
		t.Fatalf("decode = %v", out)
	}
	if len(DecodeForm(nil)) != 0 {
		t.Fatal("empty decode not empty")
	}
}

func TestDefenseRandomQueryPreventsCachedScriptReuse(t *testing.T) {
	// §VIII: with the random-query defence every script load is a network
	// fetch under a fresh key, so a poisoned cache entry is never re-hit.
	w := newWeb(t)
	w.addPage("site.com", "/", `<html><body><script src="/app.js"></script></body></html>`,
		map[string]string{"Cache-Control": "no-store"})
	w.addPage("site.com", "/app.js", "genuine", nil)
	b := w.browser(t, "Chrome")
	b.DefenseRandomQuery = true

	// Poison the plain-key cache entry directly.
	poisoned := httpsim.NewResponse(200, []byte("POISON"))
	poisoned.Header.Set("Cache-Control", "max-age=31536000")
	b.Cache().Put("site.com", mustEntry(t, "site.com/app.js", poisoned))

	page := w.visit(t, b, "site.com", "/")
	if len(page.Scripts) != 1 {
		t.Fatalf("scripts = %d", len(page.Scripts))
	}
	if string(page.Scripts[0].Content) != "genuine" {
		t.Fatalf("executed %q; defence failed to bypass the poisoned entry", page.Scripts[0].Content)
	}
	// Each page load fetches fresh: two visits, two network fetches.
	before := b.NetFetches()
	w.visit(t, b, "site.com", "/")
	if b.NetFetches() <= before {
		t.Fatal("second visit did not refetch the script")
	}
}
