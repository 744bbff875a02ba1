package experiments

import (
	"fmt"
	"strings"

	"masterparasite/internal/apps"
	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/attacks"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/dom"
	"masterparasite/internal/parasite"
	"masterparasite/internal/proxycache"
	"masterparasite/internal/runner"
)

// tableIVClients is the number of distinct clients behind each shared
// cache in the functional infection run.
const tableIVClients = 8

// TableIVRow is one cache-device row with its functional verification.
type TableIVRow struct {
	Device        proxycache.Device `json:"device"`
	VictimsServed int               `json:"victims_served"` // shared-cache infection outcome (-1 = not applicable)
}

// TableIVData is the Table IV dataset.
type TableIVData []TableIVRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d TableIVData) Table() (header []string, rows [][]string) {
	header = []string{"location", "type", "instance", "http", "https", "victims_served", "comment"}
	for _, r := range d {
		served := "n/a"
		if r.VictimsServed >= 0 {
			served = fmt.Sprintf("%d/%d", r.VictimsServed, tableIVClients)
		}
		rows = append(rows, []string{r.Device.Location, r.Device.Type, r.Device.Instance,
			r.Device.HTTP.Symbol(), r.Device.HTTPS.Symbol(), served, r.Device.Comment})
	}
	return header, rows
}

// TableIV reproduces the caches-in-the-wild evaluation: the device
// taxonomy plus, for every shared HTTP-capable device, a functional
// infection run showing that one poisoned entry reaches every client.
// Every device is one independent job with its own cache instance.
func TableIV(env artifact.Env) (*artifact.Result, error) {
	rows, err := runner.Map(env.Runner, proxycache.Devices(), func(_ int, d proxycache.Device) (TableIVRow, error) {
		row := TableIVRow{Device: d, VictimsServed: -1}
		if d.Shared && d.HTTP.Vulnerable() {
			cache := proxycache.NewSharedCache(d.Instance, 1<<20, false)
			res := proxycache.RunInfection(cache, infectedJS(), tableIVClients)
			row.VictimsServed = res.VictimsServed
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-42s %-28s %-5s %-6s %-10s %s\n", "Location/Type", "Instance", "HTTP", "HTTPS", "Infected", "Comment")
	lastLoc := ""
	for _, r := range rows {
		d := r.Device
		loc := d.Location + " / " + d.Type
		if d.Location != lastLoc {
			lastLoc = d.Location
		}
		infected := "n/a"
		if r.VictimsServed >= 0 {
			infected = fmt.Sprintf("%d/%d", r.VictimsServed, tableIVClients)
		}
		fmt.Fprintf(&b, "%-42.42s %-28s %-5s %-6s %-10s %s\n",
			loc, d.Instance, d.HTTP.Symbol(), d.HTTPS.Symbol(), infected, d.Comment)
	}
	return &artifact.Result{Text: b.String(), Dataset: TableIVData(rows)}, nil
}

// TableVRow is one attack row with its run outcome. The catalogue
// fields are flattened to plain strings so the dataset is
// JSON-marshalable (the attack's executable Module never belongs in an
// artifact).
type TableVRow struct {
	CIA          string `json:"cia"`
	Attack       string `json:"attack"`
	Category     string `json:"category"`
	App          string `json:"app"`
	Succeeded    bool   `json:"succeeded"`
	Evidence     string `json:"evidence"`
	Requirements string `json:"requirements"`
}

// TableVData is the Table V dataset.
type TableVData []TableVRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d TableVData) Table() (header []string, rows [][]string) {
	header = []string{"cia", "attack", "category", "app", "succeeded", "evidence", "requirements"}
	for _, r := range d {
		rows = append(rows, []string{r.CIA, r.Attack, r.Category, r.App,
			fbool(r.Succeeded), r.Evidence, r.Requirements})
	}
	return header, rows
}

// tableVRun describes one catalogued attack execution.
type tableVRun struct {
	attack string
	app    string // which app hosts the run
	params string
	stream string // exfil stream proving success ("" = DOM evidence)
	setup  string // extra setup keyword
}

// TableV reproduces the attacks-against-applications evaluation: every
// catalogued module runs through an infected parasite against its target
// application, and the row records whether the master received the
// expected loot. Every attack is one independent scenario job.
func TableV(env artifact.Env) (*artifact.Result, error) {
	runs := []tableVRun{
		{"steal-login", "bank", "", "creds", "submit-login"},
		{"browser-data", "chat", "", "browser-data", "seed-storage"},
		{"personal-data", "chat", "microphone", "sensor-microphone", "grant-permission"},
		{"website-data", "bank", "", "website-data", "logged-in"},
		{"side-channel", "chat", "recv", "side-channel", "side-send"},
		{"bypass-2fa", "bank", "Transfer 50 EUR to DE22 GRANDMA", "", "pending-transfer"},
		{"transaction-manipulation", "bank", "iban=XX99 EVIL,amount=9000", "manipulated-tx", "logged-in-transfer"},
		{"send-phishing", "chat", "click evil.example", "phished", ""},
		{"steal-compute", "chat", "256", "mined", ""},
		{"clickjacking", "chat", "bait.example/", "", ""},
		{"ad-injection", "chat", "ads.evil/banner.png", "", ""},
		{"ddos", "chat", "victim-site.example|10", "ddos-report", "ddos-target"},
		{"spectre", "chat", "", "spectre", "plant-secret"},
		{"rowhammer", "chat", "4096", "rowhammer", "vulnerable-dram"},
		{"zero-day", "chat", "payloads.evil/cve.bin", "zero-day", "payload-host"},
		{"attack-internal", "chat", "router.local,printer.local", "internal-hosts", "internal-devices"},
		{"ddos-internal", "chat", "iot-cam.local|10", "internal-ddos-report", "internal-devices"},
	}
	rows, err := runner.Map(env.Runner, runs, func(_ int, run tableVRun) (TableVRow, error) {
		atk, ok := attacks.ByName(run.attack)
		if !ok {
			return TableVRow{}, fmt.Errorf("table V: unknown attack %q", run.attack)
		}
		succeeded, evidence, err := runTableVAttack(run.attack, run.app, run.params, run.stream, run.setup)
		if err != nil {
			return TableVRow{}, fmt.Errorf("table V %s: %w", run.attack, err)
		}
		return TableVRow{
			CIA: atk.CIA.String(), Attack: atk.Name, Category: string(atk.Category),
			App: run.app, Succeeded: succeeded,
			Evidence: evidence, Requirements: atk.Requirements,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-4s %-26s %-16s %-8s %-7s %s\n", "CIA", "Attack", "Category", "App", "Result", "Evidence")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-4s %-26s %-16s %-8s %-7s %.60s\n",
			r.CIA, r.Attack, r.Category, r.App, mark(r.Succeeded), r.Evidence)
	}
	return &artifact.Result{Text: b.String(), Dataset: TableVData(rows)}, nil
}

// runTableVAttack assembles a fresh lab and executes one catalogue row.
func runTableVAttack(attack, app, params, stream, setup string) (bool, string, error) {
	s, err := core.NewScenario(core.Config{Seed: 47})
	if err != nil {
		return false, "", err
	}
	bank := apps.NewBank("bank.example")
	chat := apps.NewChat("chat.example")
	s.AddHandler(bank.Host, bank.Handler())
	s.AddHandler(chat.Host, chat.Handler())

	cfg := parasite.NewConfig("tv", "bot-tv", core.MasterHost)
	attacks.Install(cfg)
	s.Registry.Add(cfg)
	for host, path := range map[string]string{bank.Host: "/js/bank.js", chat.Host: "/js/chat.js"} {
		s.Master.AddTarget(attacker.Target{
			Name: host + path, Kind: attacker.KindJS,
			ParasitePayload: "tv", Original: []byte("function app(){}"),
		})
	}

	host := chat.Host
	if app == "bank" {
		host = bank.Host
	}
	wired := browser.VisitOpts{OnDocument: func(p *browser.Page) {
		bank.Wire(p, nil)
		chat.Wire(p, nil)
	}}
	submitAs := func(p *browser.Page, formID string, values map[string]string) error {
		form := p.Doc.FindByID(formID)
		if form == nil {
			return fmt.Errorf("form %s missing", formID)
		}
		for k, v := range values {
			if !dom.SetFormValue(form, k, v) {
				return fmt.Errorf("input %s missing on %s", k, formID)
			}
		}
		_, _, err := p.Doc.Submit(formID)
		return err
	}

	// Environment setup per run.
	switch setup {
	case "seed-storage":
		s.Victim.LocalStorage(host)["jwt"] = "token-1"
		s.Victim.Cookies().Set(host, "theme", "dark")
	case "grant-permission":
		s.Victim.LocalStorage(host)["perm:microphone"] = "granted"
	case "plant-secret":
		s.Victim.LocalStorage(host)["spectre-secret"] = "0xdeadbeef"
	case "vulnerable-dram":
		s.Victim.LocalStorage(host)["dram"] = "vulnerable"
	case "ddos-target":
		s.AddPage("victim-site.example", "/", "<html><body>up</body></html>",
			map[string]string{"Cache-Control": "no-store"})
	case "payload-host":
		s.AddPage("payloads.evil", "/cve.bin", strings.Repeat("\x90", 32),
			map[string]string{"Cache-Control": "no-store", "Access-Control-Allow-Origin": "*"})
	case "internal-devices":
		s.AddPage("router.local", "/favicon.ico", "icon", nil)
		s.AddPage("printer.local", "/favicon.ico", "icon", nil)
		s.AddPage("iot-cam.local", "/", "cam", map[string]string{"Cache-Control": "no-store"})
	case "side-send":
		s.CNC.QueueCommand("bot-tv", []byte("side-channel|send"))
		if _, err := s.VisitWith(host, "/", wired); err != nil {
			return false, "", err
		}
	case "logged-in", "submit-login", "logged-in-transfer", "pending-transfer":
		// handled below after the first page load
	}

	// Login flows for the bank runs.
	needLogin := setup == "logged-in" || setup == "logged-in-transfer" || setup == "pending-transfer"
	if needLogin {
		page, err := s.VisitWith(bank.Host, "/", wired)
		if err != nil {
			return false, "", err
		}
		if err := submitAs(page, "login", map[string]string{"user": "alice", "pass": "hunter2"}); err != nil {
			return false, "", err
		}
		s.Run()
	}
	if setup == "pending-transfer" {
		// Stage the attacker's pending transfer via the manipulation
		// module, then evaluate bypass-2fa on the confirmation page.
		s.CNC.QueueCommand("bot-tv", []byte("transaction-manipulation|iban=XX99 EVIL,amount=9000"))
		page, err := s.VisitWith(bank.Host, "/", wired)
		if err != nil {
			return false, "", err
		}
		if err := submitAs(page, "transfer", map[string]string{"iban": "DE22 GRANDMA", "amount": "50"}); err != nil {
			return false, "", err
		}
		s.Run()
	}

	// The command under test.
	s.CNC.QueueCommand("bot-tv", []byte(attack+"|"+params))
	path := "/"
	if setup == "pending-transfer" {
		path = "/confirm"
	}
	page, err := s.VisitWith(host, path, wired)
	if err != nil {
		return false, "", err
	}

	// Post-load user interaction where the attack needs one.
	switch setup {
	case "submit-login":
		if err := submitAs(page, "login", map[string]string{"user": "alice", "pass": "hunter2"}); err != nil {
			return false, "", err
		}
		s.Run()
	case "logged-in-transfer":
		if err := submitAs(page, "transfer", map[string]string{"iban": "DE22 GRANDMA", "amount": "50"}); err != nil {
			return false, "", err
		}
		s.Run()
	}

	// Evidence: exfil stream, or DOM artefact for the display attacks.
	if stream != "" {
		loot, ok := s.CNC.Upload("bot-tv", stream)
		if !ok {
			return false, "no loot", nil
		}
		return true, fmt.Sprintf("stream %s: %.48s", stream, string(loot)), nil
	}
	switch attack {
	case "clickjacking":
		if page.Doc.FindByID("cj-overlay") != nil {
			return true, "invisible overlay planted", nil
		}
	case "bypass-2fa":
		if el := page.Doc.FindByID("pending-details"); el != nil &&
			strings.Contains(el.TextContent(), "GRANDMA") {
			return true, "user shown forged transaction details", nil
		}
	case "ad-injection":
		for _, img := range page.Doc.FindByTag("img") {
			if img.Attr("src") == params {
				return true, "ad element injected", nil
			}
		}
	}
	return false, "no evidence", nil
}
