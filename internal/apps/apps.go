// Package apps implements the victim applications of Table V: online
// banking with OTP two-factor authentication, webmail, a social network,
// a crypto exchange and a chat application. Each app is an httpsim vhost
// plus a client-side wiring helper that connects its DOM forms to the
// server — the substrate the attack modules (internal/attacks) exploit.
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

// Account is a bank (or exchange) account.
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

// ScriptPath is the bank's persistent script — the infection target.
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

// Email is one webmail message.
type Email struct {
	From    string
	To      string
	Subject string
	Body    string
}

// Webmail is the Gmail-like application.
type Webmail struct {
	Host     string
	sessions *sessions
	Password map[string]string
	Inboxes  map[string][]Email
	Contacts map[string][]string
	Sent     []Email
}

// NewWebmail creates the webmail host with a demo mailbox.
func NewWebmail(host string) *Webmail {
	return &Webmail{
		Host:     host,
		sessions: newSessions("mail"),
		Password: map[string]string{"alice": "hunter2"},
		Inboxes: map[string][]Email{
			"alice": {
				{From: "bob@corp.example", To: "alice", Subject: "Q3 numbers", Body: "attached the confidential report"},
				{From: "carol@bank.example", To: "alice", Subject: "your account", Body: "please review statement 42"},
			},
		},
		Contacts: map[string][]string{
			"alice": {"bob@corp.example", "carol@bank.example", "dave@home.example"},
		},
	}
}

const mailScript = "/js/mail.js"

// Handler serves the vhost.
func (w *Webmail) Handler() httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		switch {
		case req.PathOnly() == mailScript:
			resp := httpsim.NewResponse(200, []byte("function mailApp(){/*genuine*/}"))
			resp.Header.Set("Content-Type", "application/javascript")
			resp.Header.Set("Cache-Control", "max-age=86400")
			return resp
		case req.Method == "GET" && req.PathOnly() == "/":
			if user, ok := w.sessions.user(req); ok {
				return htmlResponse(w.inboxPage(user), nil)
			}
			return htmlResponse(loginPage(mailScript, "WebMail"), nil)
		case req.Method == "POST" && req.PathOnly() == "/login":
			form := browser.DecodeForm(req.Body)
			if w.Password[form["user"]] != form["pass"] {
				return htmlResponse(`<html><body><div id="error">bad credentials</div></body></html>`, nil)
			}
			sid := w.sessions.create(form["user"])
			resp := htmlResponse(`<html><body><div id="ok">welcome</div></body></html>`, nil)
			resp.Header.Set("Set-Cookie", "sid="+sid)
			return resp
		case req.Method == "POST" && req.PathOnly() == "/send":
			user, ok := w.sessions.user(req)
			if !ok {
				return httpsim.NewResponse(403, nil)
			}
			form := browser.DecodeForm(req.Body)
			mail := Email{From: user, To: form["to"], Subject: form["subject"], Body: form["body"]}
			w.Sent = append(w.Sent, mail)
			if inbox, exists := w.Inboxes[form["to"]]; exists {
				w.Inboxes[form["to"]] = append(inbox, mail)
			}
			return htmlResponse(`<html><body><div id="ok">sent</div></body></html>`, nil)
		default:
			return httpsim.NewResponse(404, nil)
		}
	}
}

func (w *Webmail) inboxPage(user string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><script src="%s"></script></head><body>`, mailScript)
	b.WriteString(`<div id="inbox">`)
	for i, m := range w.Inboxes[user] {
		fmt.Fprintf(&b, `<div class="email" id="email-%d"><span class="from">%s</span><span class="subject">%s</span><span class="body">%s</span></div>`,
			i, m.From, m.Subject, m.Body)
	}
	b.WriteString(`</div><div id="contacts">`)
	for _, c := range w.Contacts[user] {
		fmt.Fprintf(&b, `<span class="contact">%s</span>`, c)
	}
	b.WriteString(`</div>`)
	b.WriteString(`<form id="compose" action="/send"><input name="to" value=""><input name="subject" value=""><input name="body" value=""></form>`)
	b.WriteString(`</body></html>`)
	return b.String()
}

// Wire connects the page's forms to the server.
func (w *Webmail) Wire(page *browser.Page, onResult func(*httpsim.Response, error)) {
	if onResult == nil {
		onResult = func(*httpsim.Response, error) {}
	}
	page.Doc.OnSubmit("login", func(values map[string]string) {
		page.Post("/login", values, onResult)
	})
	page.Doc.OnSubmit("compose", func(values map[string]string) {
		page.Post("/send", values, onResult)
	})
}

// Social is the social-network application.
type Social struct {
	Host     string
	sessions *sessions
	Password map[string]string
	Friends  map[string][]string
	Posts    []string
}

// NewSocial creates the social network with a demo user.
func NewSocial(host string) *Social {
	return &Social{
		Host:     host,
		sessions: newSessions("soc"),
		Password: map[string]string{"alice": "hunter2"},
		Friends:  map[string][]string{"alice": {"bob", "carol", "dave", "erin"}},
	}
}

const socialScript = "/js/social.js"

// Handler serves the vhost.
func (s *Social) Handler() httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		switch {
		case req.PathOnly() == socialScript:
			resp := httpsim.NewResponse(200, []byte("function socialApp(){/*genuine*/}"))
			resp.Header.Set("Content-Type", "application/javascript")
			resp.Header.Set("Cache-Control", "max-age=86400")
			return resp
		case req.Method == "GET" && req.PathOnly() == "/":
			if user, ok := s.sessions.user(req); ok {
				return htmlResponse(s.feedPage(user), nil)
			}
			return htmlResponse(loginPage(socialScript, "FaceSpace"), nil)
		case req.Method == "POST" && req.PathOnly() == "/login":
			form := browser.DecodeForm(req.Body)
			if s.Password[form["user"]] != form["pass"] {
				return htmlResponse(`<html><body><div id="error">bad credentials</div></body></html>`, nil)
			}
			sid := s.sessions.create(form["user"])
			resp := htmlResponse(`<html><body><div id="ok">welcome</div></body></html>`, nil)
			resp.Header.Set("Set-Cookie", "sid="+sid)
			return resp
		case req.Method == "POST" && req.PathOnly() == "/post":
			if _, ok := s.sessions.user(req); !ok {
				return httpsim.NewResponse(403, nil)
			}
			form := browser.DecodeForm(req.Body)
			s.Posts = append(s.Posts, form["text"])
			return htmlResponse(`<html><body><div id="ok">posted</div></body></html>`, nil)
		default:
			return httpsim.NewResponse(404, nil)
		}
	}
}

func (s *Social) feedPage(user string) string {
	var b strings.Builder
	fmt.Fprintf(&b, `<html><head><script src="%s"></script></head><body>`, socialScript)
	b.WriteString(`<div id="friends">`)
	for _, f := range s.Friends[user] {
		fmt.Fprintf(&b, `<span class="friend">%s</span>`, f)
	}
	b.WriteString(`</div><form id="post" action="/post"><input name="text" value=""></form></body></html>`)
	return b.String()
}

// Withdrawal is one crypto-exchange withdrawal.
type Withdrawal struct {
	User    string
	Address string
	Amount  int
}

// Exchange is the crypto-exchange application.
type Exchange struct {
	Host        string
	sessions    *sessions
	Password    map[string]string
	Balances    map[string]int // user → satoshi
	Withdrawals []Withdrawal
}

// NewExchange creates the exchange with a demo account.
func NewExchange(host string) *Exchange {
	return &Exchange{
		Host:     host,
		sessions: newSessions("exch"),
		Password: map[string]string{"alice": "hunter2"},
		Balances: map[string]int{"alice": 5_000_000},
	}
}

const exchangeScript = "/js/exchange.js"

// Handler serves the vhost.
func (e *Exchange) Handler() httpsim.HandlerFunc {
	return func(req *httpsim.Request) *httpsim.Response {
		switch {
		case req.PathOnly() == exchangeScript:
			resp := httpsim.NewResponse(200, []byte("function exchApp(){/*genuine*/}"))
			resp.Header.Set("Content-Type", "application/javascript")
			resp.Header.Set("Cache-Control", "max-age=86400")
			return resp
		case req.Method == "GET" && req.PathOnly() == "/":
			if user, ok := e.sessions.user(req); ok {
				return htmlResponse(e.walletPage(user), nil)
			}
			return htmlResponse(loginPage(exchangeScript, "CoinPlace"), nil)
		case req.Method == "POST" && req.PathOnly() == "/login":
			form := browser.DecodeForm(req.Body)
			if e.Password[form["user"]] != form["pass"] {
				return htmlResponse(`<html><body><div id="error">bad credentials</div></body></html>`, nil)
			}
			sid := e.sessions.create(form["user"])
			resp := htmlResponse(`<html><body><div id="ok">welcome</div></body></html>`, nil)
			resp.Header.Set("Set-Cookie", "sid="+sid)
			return resp
		case req.Method == "POST" && req.PathOnly() == "/withdraw":
			user, ok := e.sessions.user(req)
			if !ok {
				return httpsim.NewResponse(403, nil)
			}
			form := browser.DecodeForm(req.Body)
			amount, err := strconv.Atoi(form["amount"])
			if err != nil || amount <= 0 || amount > e.Balances[user] {
				return httpsim.NewResponse(400, []byte("bad amount"))
			}
			e.Balances[user] -= amount
			e.Withdrawals = append(e.Withdrawals, Withdrawal{User: user, Address: form["address"], Amount: amount})
			return htmlResponse(`<html><body><div id="ok">withdrawal queued</div></body></html>`, nil)
		default:
			return httpsim.NewResponse(404, nil)
		}
	}
}

func (e *Exchange) walletPage(user string) string {
	return fmt.Sprintf(`<html><head><script src="%s"></script></head><body>
<div id="wallet">%d sat</div>
<form id="withdraw" action="/withdraw"><input name="address" value=""><input name="amount" value=""></form>
</body></html>`, exchangeScript, e.Balances[user])
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

// ScriptPaths maps each app host to its persistent script path — the
// infection targets for Table V runs.
func ScriptPaths() map[string]string {
	return map[string]string{
		"bank":     bankScript,
		"mail":     mailScript,
		"social":   socialScript,
		"exchange": exchangeScript,
		"chat":     chatScript,
	}
}
