// Package apps implements the victim applications that Table V loads:
// online banking with OTP two-factor authentication and a chat
// application. Each app is an httpsim vhost plus a client-side wiring
// helper that connects its DOM forms to the server — the substrate the
// attack modules (internal/attacks) exploit.
package apps

import (
	"fmt"
	"strconv"
	"strings"

	"masterparasite/internal/browser"
	"masterparasite/internal/httpsim"
)

// sessions is the shared session-cookie store.
type sessions struct {
	byID    map[string]string // sid → user
	counter int
	prefix  string
}

func newSessions(prefix string) *sessions {
	return &sessions{byID: make(map[string]string), prefix: prefix}
}

func (s *sessions) create(user string) string {
	s.counter++
	sid := fmt.Sprintf("%s-%06d", s.prefix, s.counter)
	s.byID[sid] = user
	return sid
}

func (s *sessions) user(req *httpsim.Request) (string, bool) {
	for _, kv := range strings.Split(req.Header.Get("Cookie"), ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if ok && k == "sid" {
			u, found := s.byID[v]
			return u, found
		}
	}
	return "", false
}

func htmlResponse(body string, extraHdr map[string]string) *httpsim.Response {
	resp := httpsim.NewResponse(200, []byte(body))
	resp.Header.Set("Content-Type", "text/html")
	resp.Header.Set("Cache-Control", "no-store")
	for k, v := range extraHdr {
		resp.Header.Set(k, v)
	}
	return resp
}

func loginPage(appScript, title string) string {
	return fmt.Sprintf(`<html><head><title>%s</title><script src="%s"></script></head>
<body><form id="login" action="/login">
<input name="user" value=""><input name="pass" type="password" value="">
</form></body></html>`, title, appScript)
}

// Account is a bank account.
type Account struct {
	User     string
	Password string
	OTP      string // the Google-Authenticator-style one-time secret
	Balance  int
	IBAN     string
}

// Transfer is a committed or pending bank transfer.
type Transfer struct {
	From       string
	ToIBAN     string
	Amount     int
	Authorized bool
}

// Bank is the online-banking application. Its transfer flow is two-step:
// submit transfer → confirm with OTP. There is NO out-of-band transaction
// detail confirmation, which is exactly the requirement column of
// Table V's "Circumvent Two Factor Authentication" row.
type Bank struct {
	Host     string
	Accounts map[string]*Account
	sessions *sessions

	pending   map[string]Transfer // session → pending transfer
	Transfers []Transfer

	// SecurityHeaders lets the experiments toggle CSP/HSTS hardening.
	SecurityHeaders map[string]string
}

// NewBank creates the bank with a demo account (alice / hunter2, OTP
// 123456, balance 10_000).
func NewBank(host string) *Bank {
	return &Bank{
		Host: host,
		Accounts: map[string]*Account{
			"alice": {User: "alice", Password: "hunter2", OTP: "123456", Balance: 10000, IBAN: "DE11 ALICE"},
		},
		sessions:        newSessions("bank"),
		pending:         make(map[string]Transfer),
		SecurityHeaders: map[string]string{},
	}
}

// bankScript is the bank's persistent script — the infection target.
const bankScript = "/js/bank.js"

// Handler serves the vhost.
func (b *Bank) Handler() httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		switch {
		case req.PathOnly() == bankScript:
			resp := httpsim.NewResponse(200, []byte("function bankApp(){/*genuine*/}"))
			resp.Header.Set("Content-Type", "application/javascript")
			resp.Header.Set("Cache-Control", "max-age=86400")
			return resp
		case req.Method == "GET" && req.PathOnly() == "/":
			if user, ok := b.sessions.user(req); ok {
				return htmlResponse(b.accountPage(user), b.SecurityHeaders)
			}
			return htmlResponse(loginPage(bankScript, "MyBank"), b.SecurityHeaders)
		case req.Method == "POST" && req.PathOnly() == "/login":
			form := browser.DecodeForm(req.Body)
			acct, ok := b.Accounts[form["user"]]
			if !ok || acct.Password != form["pass"] {
				return htmlResponse(`<html><body><div id="error">bad credentials</div></body></html>`, b.SecurityHeaders)
			}
			sid := b.sessions.create(acct.User)
			resp := htmlResponse(`<html><body><div id="ok">welcome</div></body></html>`, b.SecurityHeaders)
			resp.Header.Set("Set-Cookie", "sid="+sid)
			return resp
		case req.Method == "POST" && req.PathOnly() == "/transfer":
			user, ok := b.sessions.user(req)
			if !ok {
				return httpsim.NewResponse(403, nil)
			}
			form := browser.DecodeForm(req.Body)
			amount, err := strconv.Atoi(form["amount"])
			if err != nil || amount <= 0 {
				return httpsim.NewResponse(400, []byte("bad amount"))
			}
			sid := b.sidOf(req)
			b.pending[sid] = Transfer{From: user, ToIBAN: form["iban"], Amount: amount}
			return htmlResponse(b.otpPage(b.pending[sid]), b.SecurityHeaders)
		case req.Method == "GET" && req.PathOnly() == "/confirm":
			sid := b.sidOf(req)
			pt, ok := b.pending[sid]
			if !ok {
				return httpsim.NewResponse(404, []byte("nothing pending"))
			}
			return htmlResponse(b.otpPage(pt), b.SecurityHeaders)
		case req.Method == "POST" && req.PathOnly() == "/otp":
			user, ok := b.sessions.user(req)
			if !ok {
				return httpsim.NewResponse(403, nil)
			}
			sid := b.sidOf(req)
			pt, ok := b.pending[sid]
			if !ok {
				return httpsim.NewResponse(400, []byte("nothing pending"))
			}
			form := browser.DecodeForm(req.Body)
			acct := b.Accounts[user]
			if form["code"] != acct.OTP {
				return htmlResponse(`<html><body><div id="error">bad OTP</div></body></html>`, b.SecurityHeaders)
			}
			pt.Authorized = true
			b.Transfers = append(b.Transfers, pt)
			acct.Balance -= pt.Amount
			delete(b.pending, sid)
			return htmlResponse(`<html><body><div id="ok">transfer executed</div></body></html>`, b.SecurityHeaders)
		default:
			return httpsim.NewResponse(404, nil)
		}
	}
}

func (b *Bank) sidOf(req *httpsim.Request) string {
	for _, kv := range strings.Split(req.Header.Get("Cookie"), ";") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if ok && k == "sid" {
			return v
		}
	}
	return ""
}

func (b *Bank) accountPage(user string) string {
	acct := b.Accounts[user]
	return fmt.Sprintf(`<html><head><script src="%s"></script></head><body>
<div id="balance">%d EUR</div><div id="iban">%s</div>
<form id="transfer" action="/transfer">
<input name="iban" value=""><input name="amount" value="">
</form></body></html>`, bankScript, acct.Balance, acct.IBAN)
}

func (b *Bank) otpPage(pt Transfer) string {
	return fmt.Sprintf(`<html><head><script src="%s"></script></head><body>
<div id="pending-details">Transfer %d EUR to %s</div>
<form id="otp" action="/otp"><input name="code" value=""></form>
</body></html>`, bankScript, pt.Amount, pt.ToIBAN)
}

// Wire connects the page's forms to the server via background POSTs, as
// the app's genuine JavaScript would. onResult receives each response.
func (b *Bank) Wire(page *browser.Page, onResult func(*httpsim.Response, error)) {
	if onResult == nil {
		onResult = func(*httpsim.Response, error) {}
	}
	page.Doc.OnSubmit("login", func(values map[string]string) {
		page.Post("/login", values, onResult)
	})
	page.Doc.OnSubmit("transfer", func(values map[string]string) {
		page.Post("/transfer", values, onResult)
	})
	page.Doc.OnSubmit("otp", func(values map[string]string) {
		page.Post("/otp", values, onResult)
	})
}

// ChatMessage is one chat message.
type ChatMessage struct {
	From string
	To   string
	Text string
}

// Chat is the WhatsApp-Web-like application. No login: the session is
// pre-established (as with a linked device).
type Chat struct {
	Host     string
	User     string
	Contacts []string
	History  []ChatMessage
	Sent     []ChatMessage
}

// NewChat creates the chat app with a linked session and history.
func NewChat(host string) *Chat {
	return &Chat{
		Host: host, User: "alice",
		Contacts: []string{"bob", "carol", "mom"},
		History: []ChatMessage{
			{From: "bob", To: "alice", Text: "see you at the conference"},
			{From: "mom", To: "alice", Text: "call me back please"},
		},
	}
}

const chatScript = "/js/chat.js"

// Handler serves the vhost.
func (c *Chat) Handler() httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		switch {
		case req.PathOnly() == chatScript:
			resp := httpsim.NewResponse(200, []byte("function chatApp(){/*genuine*/}"))
			resp.Header.Set("Content-Type", "application/javascript")
			resp.Header.Set("Cache-Control", "max-age=86400")
			return resp
		case req.Method == "GET" && req.PathOnly() == "/":
			return htmlResponse(c.chatPage(), nil)
		case req.Method == "POST" && req.PathOnly() == "/send":
			form := browser.DecodeForm(req.Body)
			msg := ChatMessage{From: c.User, To: form["to"], Text: form["text"]}
			c.Sent = append(c.Sent, msg)
			c.History = append(c.History, msg)
			return htmlResponse(`<html><body><div id="ok">sent</div></body></html>`, nil)
		default:
			return httpsim.NewResponse(404, nil)
		}
	}
}

func (c *Chat) chatPage() string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><script src="%s"></script></head><body>`, chatScript)
	b.WriteString(`<div id="contacts">`)
	for _, ct := range c.Contacts {
		fmt.Fprintf(&b, `<span class="contact">%s</span>`, ct)
	}
	b.WriteString(`</div><div id="history">`)
	for _, m := range c.History {
		fmt.Fprintf(&b, `<div class="msg"><span class="from">%s</span><span class="text">%s</span></div>`, m.From, m.Text)
	}
	b.WriteString(`</div><form id="sendmsg" action="/send"><input name="to" value=""><input name="text" value=""></form></body></html>`)
	return b.String()
}

// Wire connects forms to the server.
func (c *Chat) Wire(page *browser.Page, onResult func(*httpsim.Response, error)) {
	if onResult == nil {
		onResult = func(*httpsim.Response, error) {}
	}
	page.Doc.OnSubmit("sendmsg", func(values map[string]string) {
		page.Post("/send", values, onResult)
	})
}
