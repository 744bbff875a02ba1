package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/attacker"
	"masterparasite/internal/browser"
	"masterparasite/internal/cnc"
	"masterparasite/internal/core"
	"masterparasite/internal/httpsim"
	"masterparasite/internal/netsim"
	"masterparasite/internal/parasite"
	"masterparasite/internal/runner"
	"masterparasite/internal/script"
	"masterparasite/internal/tcpsim"
)

// conditionsSeed is the base seed of the degradation matrix; every cell
// derives its scenario seed from it via runner.Seed so the grid is a
// pure function of (profile name, cell, attempt).
const conditionsSeed = 131

// ConditionsRow is one link profile's kill-chain degradation outcome.
type ConditionsRow struct {
	Profile       string  `json:"profile"`
	LossPct       float64 `json:"loss_pct"`
	JitterMs      float64 `json:"jitter_ms"`
	BandwidthKBs  int64   `json:"bandwidth_kbs"` // 0 = unlimited
	InjectionWins int     `json:"injection_wins"`
	Attempts      int     `json:"attempts"`
	Evicted       bool    `json:"evicted"`
	GoodputKBs    float64 `json:"goodput_kbs"` // 0 = transfer failed
	LinkLost      int     `json:"link_lost"`
	LinkDup       int     `json:"link_duplicated"`
	ChurnSurvived bool    `json:"churn_survived"`
}

// ConditionsData is the "conditions" artifact dataset.
type ConditionsData []ConditionsRow

// Table flattens the dataset for the CSV and Markdown renderers.
func (d ConditionsData) Table() (header []string, rows [][]string) {
	header = []string{"profile", "loss_pct", "jitter_ms", "bandwidth_kbs",
		"injection_wins", "attempts", "evicted", "goodput_kbs", "link_lost",
		"link_duplicated", "churn_survived"}
	for _, r := range d {
		rows = append(rows, []string{
			r.Profile,
			strconv.FormatFloat(r.LossPct, 'f', 1, 64),
			strconv.FormatFloat(r.JitterMs, 'f', 1, 64),
			strconv.FormatInt(r.BandwidthKBs, 10),
			fint(r.InjectionWins), fint(r.Attempts), fbool(r.Evicted),
			strconv.FormatFloat(r.GoodputKBs, 'f', 1, 64),
			fint(r.LinkLost), fint(r.LinkDup), fbool(r.ChurnSurvived),
		})
	}
	return header, rows
}

// Conditions sweeps the full kill chain across the preset link-profile
// grid: for each profile it measures the injection-race win rate over
// several seeds, eviction-flood reliability, covert-channel goodput in
// virtual time, and parasite persistence under victim churn — all with
// tcpsim retransmission carrying the attack over the faulty wire. One
// runner job per profile; every fault is drawn from the per-link seeded
// PRNG, so the matrix is byte-identical at any worker count.
func Conditions(env artifact.Env) (*artifact.Result, error) {
	attempts := env.Param("attempts")
	payload := env.Param("payload")
	rows, err := runner.Map(env.Runner, netsim.Profiles(), func(_ int, lp netsim.LinkProfile) (ConditionsRow, error) {
		return conditionsRow(lp, attempts, payload)
	})
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "kill chain vs network conditions (attempts=%d, payload=%dB, retransmission on)\n\n", attempts, payload)
	fmt.Fprintf(&b, "%-17s %-6s %-7s %-9s %-7s %-6s %-13s %-9s %s\n",
		"profile", "loss", "jitter", "bw", "inject", "evict", "goodput", "lost/dup", "churn")
	for _, r := range rows {
		bw := "-"
		if r.BandwidthKBs > 0 {
			bw = fmt.Sprintf("%dKB/s", r.BandwidthKBs)
		}
		goodput := "failed"
		if r.GoodputKBs > 0 {
			goodput = fmt.Sprintf("%.1f KB/s", r.GoodputKBs)
		}
		fmt.Fprintf(&b, "%-17s %-6s %-7s %-9s %-7s %-6s %-13s %-9s %s\n",
			r.Profile,
			fmt.Sprintf("%.0f%%", r.LossPct),
			fmt.Sprintf("%.0fms", r.JitterMs),
			bw,
			fmt.Sprintf("%d/%d", r.InjectionWins, r.Attempts),
			mark(r.Evicted),
			goodput,
			fmt.Sprintf("%d/%d", r.LinkLost, r.LinkDup),
			mark(r.ChurnSurvived))
	}
	fmt.Fprintf(&b, "\ninject: spoofed-response race wins; evict: cross-domain cache eviction;\n")
	fmt.Fprintf(&b, "goodput: C&C downstream in virtual time; lost/dup: link faults during the\n")
	fmt.Fprintf(&b, "C&C transfer; churn: command executed while the victim flaps on/off WiFi\n")
	return &artifact.Result{Text: b.String(), Dataset: ConditionsData(rows)}, nil
}

// conditionsRow measures every cell of one link profile's row. The
// cells run sequentially inside the job; each builds its own scenario.
func conditionsRow(lp netsim.LinkProfile, attempts, payload int) (ConditionsRow, error) {
	row := ConditionsRow{
		Profile:      lp.Name,
		LossPct:      lp.Loss * 100,
		JitterMs:     float64(lp.Jitter) / float64(time.Millisecond),
		BandwidthKBs: lp.Bandwidth / 1024,
		Attempts:     attempts,
	}
	// The injection and eviction cells are Table II's and Table I's
	// over the faulty link. A page load that did not complete is a lost
	// race, or no eviction, rather than an error: on a harsh link the
	// victim's fetch itself may die, and that is the measurement. So
	// both cells' loadErr is dropped.
	for i := 0; i < attempts; i++ {
		seed := runner.Seed(conditionsSeed, fmt.Sprintf("inject-%s-%d", lp.Name, i))
		ok, _, err := injectionSucceeds(core.Config{Seed: seed, Link: &lp, Retransmit: true}, "cond")
		if err != nil {
			return row, fmt.Errorf("conditions %s inject #%d: %w", lp.Name, i, err)
		}
		if ok {
			row.InjectionWins++
		}
	}
	chrome, err := browser.ProfileByName("Chrome")
	if err != nil {
		return row, fmt.Errorf("conditions %s evict: %w", lp.Name, err)
	}
	evict, _, err := tableIRow(core.Config{Profile: &chrome,
		Seed: runner.Seed(conditionsSeed, "evict-"+lp.Name), Link: &lp, Retransmit: true})
	if err != nil {
		return row, fmt.Errorf("conditions %s evict: %w", lp.Name, err)
	}
	row.Evicted = evict.InterDomain
	gp, err := cncGoodput(lp, payload, runner.Seed(conditionsSeed, "goodput-"+lp.Name))
	if err != nil {
		return row, fmt.Errorf("conditions %s goodput: %w", lp.Name, err)
	}
	row.GoodputKBs = gp.KBs
	row.LinkLost = gp.Lost
	row.LinkDup = gp.Duplicated
	churn, err := conditionsChurn(lp, runner.Seed(conditionsSeed, "churn-"+lp.Name))
	if err != nil {
		return row, fmt.Errorf("conditions %s churn: %w", lp.Name, err)
	}
	row.ChurnSurvived = churn
	return row, nil
}

// conditionsChurn infects the victim in Table II's injection scenario,
// with the strain anchored and given a ping module, moves it home,
// queues a command, and then flaps the victim's interface on and off
// while the parasite polls. Survival means the full C&C round trip —
// command decoded and executed downstream, ping exfiltrated upstream —
// despite the outages.
func conditionsChurn(lp netsim.LinkProfile, seed int64) (bool, error) {
	strain := parasite.NewConfig("cond", "bot-cond", core.MasterHost)
	strain.Modules["ping"] = func(_ script.Env, _ string, exfil parasite.Exfil) error {
		exfil("ping", []byte("alive"))
		return nil
	}
	s, err := injectionScenario(core.Config{Seed: seed, Link: &lp, Retransmit: true}, strain)
	if err != nil {
		return false, err
	}
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		return false, nil // never infected: nothing to persist
	}
	s.LeaveAttackerNetwork()
	s.CNC.QueueCommand("bot-cond", []byte("ping|"))
	// Five outages of 8ms every 40ms, starting 1ms into the visit: short
	// enough for the RTO backoff to ride out, frequent enough that some
	// poll exchange is mid-flight when the interface goes dark.
	s.ScheduleChurn(time.Millisecond, 40*time.Millisecond, 8*time.Millisecond, 5)
	if _, err := s.Visit("somesite.com", "/"); err != nil {
		return false, nil // churn killed the carrier page load
	}
	_, ok := s.CNC.Upload("bot-cond", "ping")
	return ok, nil
}

// goodputResult is one covert-channel transfer measurement.
type goodputResult struct {
	KBs        float64 // virtual-time downstream rate; 0 when the transfer failed
	Lost       int     // frames the link dropped during the transfer
	Duplicated int     // frames the link delivered twice
}

// cncGoodput runs a full C&C downstream exchange — meta probe plus
// every sprite batch, the exact bot protocol — over a dedicated faulty
// link with retransmitting stacks, and measures goodput against the
// virtual clock. The transfer either delivers the payload bit-exact or
// reports a zero rate; a corrupted decode is an error, because
// retransmission must never surface damaged bytes.
func cncGoodput(lp netsim.LinkProfile, payload int, seed int64) (goodputResult, error) {
	const (
		serverAddr netsim.Addr = "cnc-master"
		clientAddr netsim.Addr = "cnc-bot"
		botID                  = "bot-goodput"
		batchSize              = 64
	)
	net := netsim.New()
	seg := net.MustSegment("uplink", 200*time.Microsecond)
	seg.SetLinkProfile(lp)
	srvIfc := seg.MustAttach(serverAddr, 2*time.Millisecond, nil)
	cliIfc := seg.MustAttach(clientAddr, 300*time.Microsecond, nil)
	srvStack := tcpsim.NewStack(net, srvIfc, tcpsim.WithSeed(seed+1), tcpsim.WithRetransmit())
	cliStack := tcpsim.NewStack(net, cliIfc, tcpsim.WithSeed(seed+2), tcpsim.WithRetransmit())

	master := cnc.NewMasterServer()
	if _, err := httpsim.NewServer(srvStack, 80, nil, attacker.CNCAdapter(master)); err != nil {
		return goodputResult{}, err
	}
	msg := make([]byte, payload)
	for i := range msg {
		msg[i] = byte(seed) + byte(i*7)
	}
	cmdID := master.QueueCommand(botID, msg)

	client := httpsim.NewClient(cliStack)
	get := func(path string, cb func(*httpsim.Response, error)) {
		client.Do(serverAddr, 80, false, httpsim.NewRequest("GET", core.MasterHost, path), cb)
	}
	var (
		dims     []cnc.Dim
		count    int
		done     time.Duration
		fetchErr error
	)
	var fetchBatch func(from int)
	fetchBatch = func(from int) {
		n := batchSize
		if from+n > count {
			n = count - from
		}
		get(fmt.Sprintf("/batch/%s/%d/%d/%d.svg", botID, cmdID, from, n), func(resp *httpsim.Response, err error) {
			if err != nil {
				fetchErr = err
				return
			}
			got, err := cnc.ParseBatchSVG(dims, resp.Body)
			if err != nil {
				fetchErr = err
				return
			}
			dims = got
			if from+n < count {
				fetchBatch(from + n)
				return
			}
			done = net.Now()
		})
	}
	get(fmt.Sprintf("/meta/%s.svg", botID), func(resp *httpsim.Response, err error) {
		if err != nil {
			fetchErr = err
			return
		}
		meta, err := cnc.ParseSVG(resp.Body)
		if err != nil {
			fetchErr = err
			return
		}
		count = int(meta.H)
		fetchBatch(0)
	})
	net.Run(0)

	res := goodputResult{Lost: seg.Lost(), Duplicated: seg.Duplicated()}
	if fetchErr != nil || done == 0 {
		return res, nil // the link defeated the transfer: zero goodput
	}
	data, err := cnc.DecodeDims(dims)
	if err != nil {
		return res, fmt.Errorf("cnc goodput decode: %w", err)
	}
	if !bytes.Equal(data, msg) {
		return res, errors.New("cnc goodput: decoded payload differs — retransmission let corruption through")
	}
	res.KBs = float64(payload) / done.Seconds() / 1024
	return res, nil
}
