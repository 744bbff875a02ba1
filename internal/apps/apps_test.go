package apps

import (
	"strings"
	"testing"

	"masterparasite/internal/browser"
	"masterparasite/internal/dom"
	"masterparasite/internal/httpsim"
)

func post(h httpsim.HandlerFunc, host, path, cookie string, form map[string]string) *httpsim.Response {
	req := httpsim.NewRequest("POST", host, path)
	req.Header.Set("Content-Type", "application/x-www-form-urlencoded")
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	req.Body = []byte(browser.EncodeForm(form))
	return h(req)
}

func get(h httpsim.HandlerFunc, host, path, cookie string) *httpsim.Response {
	req := httpsim.NewRequest("GET", host, path)
	if cookie != "" {
		req.Header.Set("Cookie", cookie)
	}
	return h(req)
}

func sidFrom(resp *httpsim.Response) string {
	sc := resp.Header.Get("Set-Cookie")
	return strings.SplitN(sc, ";", 2)[0]
}

func TestBankLoginFlow(t *testing.T) {
	b := NewBank("bank.example")
	h := b.Handler()
	if resp := get(h, b.Host, "/", ""); !strings.Contains(string(resp.Body), `id="login"`) {
		t.Fatal("anonymous front page has no login form")
	}
	bad := post(h, b.Host, "/login", "", map[string]string{"user": "alice", "pass": "wrong"})
	if !strings.Contains(string(bad.Body), "bad credentials") {
		t.Fatal("bad login accepted")
	}
	good := post(h, b.Host, "/login", "", map[string]string{"user": "alice", "pass": "hunter2"})
	sid := sidFrom(good)
	if sid == "" {
		t.Fatal("no session cookie")
	}
	acct := get(h, b.Host, "/", sid)
	if !strings.Contains(string(acct.Body), "10000 EUR") {
		t.Fatal("account page missing balance")
	}
}

func TestBankTransferRequiresOTP(t *testing.T) {
	b := NewBank("bank.example")
	h := b.Handler()
	sid := sidFrom(post(h, b.Host, "/login", "", map[string]string{"user": "alice", "pass": "hunter2"}))

	otpPage := post(h, b.Host, "/transfer", sid, map[string]string{"iban": "DE22 X", "amount": "100"})
	if !strings.Contains(string(otpPage.Body), `id="otp"`) {
		t.Fatal("no OTP challenge")
	}
	if len(b.Transfers) != 0 {
		t.Fatal("transfer committed before OTP")
	}
	bad := post(h, b.Host, "/otp", sid, map[string]string{"code": "000000"})
	if !strings.Contains(string(bad.Body), "bad OTP") || len(b.Transfers) != 0 {
		t.Fatal("wrong OTP accepted")
	}
	good := post(h, b.Host, "/otp", sid, map[string]string{"code": "123456"})
	if !strings.Contains(string(good.Body), "transfer executed") {
		t.Fatalf("otp response: %s", good.Body)
	}
	if len(b.Transfers) != 1 || b.Transfers[0].Amount != 100 || !b.Transfers[0].Authorized {
		t.Fatalf("transfers = %+v", b.Transfers)
	}
	if b.Accounts["alice"].Balance != 9900 {
		t.Fatalf("balance = %d", b.Accounts["alice"].Balance)
	}
}

func TestBankRejectsUnauthenticated(t *testing.T) {
	b := NewBank("bank.example")
	h := b.Handler()
	if resp := post(h, b.Host, "/transfer", "", map[string]string{"iban": "X", "amount": "1"}); resp.StatusCode != 403 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if resp := post(h, b.Host, "/otp", "sid=forged", map[string]string{"code": "123456"}); resp.StatusCode != 403 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestBankConfirmShowsPending(t *testing.T) {
	b := NewBank("bank.example")
	h := b.Handler()
	sid := sidFrom(post(h, b.Host, "/login", "", map[string]string{"user": "alice", "pass": "hunter2"}))
	post(h, b.Host, "/transfer", sid, map[string]string{"iban": "DE33 Y", "amount": "77"})
	confirm := get(h, b.Host, "/confirm", sid)
	if !strings.Contains(string(confirm.Body), "77 EUR to DE33 Y") {
		t.Fatalf("confirm page: %s", confirm.Body)
	}
}

func TestChatHistoryAndSend(t *testing.T) {
	c := NewChat("chat.example")
	h := c.Handler()
	page := get(h, c.Host, "/", "")
	doc := dom.ParseHTML("chat.example/", page.Body)
	msgs := doc.Root.Find(func(e *dom.Element) bool { return e.Attr("class") == "msg" })
	if len(msgs) != 2 {
		t.Fatalf("history msgs = %d", len(msgs))
	}
	post(h, c.Host, "/send", "", map[string]string{"to": "bob", "text": "hi"})
	if len(c.Sent) != 1 || c.Sent[0].To != "bob" {
		t.Fatalf("sent = %+v", c.Sent)
	}
	if len(c.History) != 3 {
		t.Fatalf("history = %d", len(c.History))
	}
}

func TestAppScriptsServedCacheable(t *testing.T) {
	for _, app := range []struct {
		name, path string
		handler    httpsim.HandlerFunc
	}{
		{"bank", "/js/bank.js", NewBank("b").Handler()},
		{"chat", "/js/chat.js", NewChat("c").Handler()},
	} {
		resp := app.handler(httpsim.NewRequest("GET", "x", app.path))
		if resp.StatusCode != 200 {
			t.Errorf("%s script status = %d", app.name, resp.StatusCode)
		}
		if !strings.Contains(resp.Header.Get("Cache-Control"), "max-age") {
			t.Errorf("%s script not cacheable — it must be a persistent infection target", app.name)
		}
	}
}

func TestFormCodecRoundTrip(t *testing.T) {
	in := map[string]string{"user": "a&b", "pass": "x=y"}
	out := browser.DecodeForm([]byte(browser.EncodeForm(in)))
	if out["user"] != "a&b" {
		t.Fatalf("out = %v", out)
	}
}

func TestUnknownPaths404(t *testing.T) {
	b := NewBank("bank.example")
	if resp := get(b.Handler(), b.Host, "/admin", ""); resp.StatusCode != 404 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}
