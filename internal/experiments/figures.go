package experiments

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"time"

	"masterparasite/internal/artifact"
	"masterparasite/internal/cnc"
	"masterparasite/internal/core"
	"masterparasite/internal/crawler"
	"masterparasite/internal/netsim"
	"masterparasite/internal/webcorpus"
)

// Figure3 reproduces the persistency measurement: a daily crawl of the
// synthetic Alexa population, rendered as the three curves of the
// figure. The crawl fans out one job per site chunk on the runner.
func Figure3(env artifact.Env) (*artifact.Result, error) {
	sites, days := env.Param("sites"), env.Param("days")
	corpus := webcorpus.Generate(webcorpus.Params{Sites: sites, Seed: int64(env.Param("seed"))})
	res := crawler.CrawlPersistency(env.Runner, corpus, days)

	var b strings.Builder
	fmt.Fprintf(&b, "sites crawled: %d, days: %d\n", res.Sites, days)
	fmt.Fprintf(&b, "%-6s %-10s %-18s %-18s\n", "day", "any .js", "persistent(hash)", "persistent(name)")
	rows := []int{0, 1, 5, 10, 20, 40, 60, 80, days}
	for i, day := range rows {
		if day >= days && i < len(rows)-1 {
			continue // past the study, or its last day, which the last row prints
		}
		p := res.At(day)
		fmt.Fprintf(&b, "%-6d %-10.2f %-18.2f %-18.2f\n", p.Day, p.AnyJS, p.PersistentHash, p.PersistentName)
	}
	// A short study measures an anchor on its last day, and says so.
	p5, pEnd := res.At(5), res.At(100)
	fmt.Fprintf(&b, "\npaper anchors: ≈87.5%% name-persistent @5d (measured %.1f%% @%dd), ≈75.3%% @100d (measured %.1f%% @%dd)\n",
		p5.PersistentName, p5.Day, pEnd.PersistentName, pEnd.Day)
	return &artifact.Result{Text: b.String(), Dataset: res}, nil
}

// Figure5 reproduces the CSP statistics plus the §V HSTS/HTTPS survey.
// The survey fans out per-site jobs on the runner.
func Figure5(env artifact.Env) (*artifact.Result, error) {
	corpus := webcorpus.Generate(webcorpus.Params{Sites: env.Param("sites"), Seed: int64(env.Param("seed"))})
	s := crawler.SurveyHeaders(env.Runner, corpus)
	s.AnalyticsShare = crawler.AnalyticsShare(corpus)

	var b strings.Builder
	fmt.Fprintf(&b, "population: %d sites, %d responders\n\n", s.Sites, s.Responders)
	fmt.Fprintf(&b, "§V transport security (paper: 21%% no HTTPS, ~7%% vulnerable SSL)\n")
	fmt.Fprintf(&b, "  no HTTPS:         %6.2f%%\n", s.NoHTTPSShare)
	fmt.Fprintf(&b, "  vulnerable SSL:   %6.2f%%\n", s.VulnSSLShare)
	fmt.Fprintf(&b, "§V HSTS (paper: 67.92%% without HSTS, 96.59%% SSL-strippable)\n")
	fmt.Fprintf(&b, "  no HSTS:          %6.2f%% (%d responders)\n", s.NoHSTSShare, s.NoHSTSCount)
	fmt.Fprintf(&b, "  preloaded:        %d\n", s.PreloadCount)
	fmt.Fprintf(&b, "  SSL-strippable:   %6.2f%%\n", s.StrippableShare)
	fmt.Fprintf(&b, "Fig. 5 CSP statistics (paper: ~4.7%% supply CSP, 15.3%% deprecated)\n")
	fmt.Fprintf(&b, "  CSP header:       %6.2f%%\n", s.CSPHeaderShare)
	fmt.Fprintf(&b, "  with rules:       %6.2f%%\n", s.CSPRulesShare)
	fmt.Fprintf(&b, "  deprecated share: %6.2f%%\n", s.DeprecatedShare)
	fmt.Fprintf(&b, "  versions:         %v\n", s.VersionCounts)
	fmt.Fprintf(&b, "  connect-src uses: %d (wildcard: %d — paper: 160 uses, 17 wildcards)\n",
		s.ConnectSrcUses, s.ConnectSrcStar)
	fmt.Fprintf(&b, "§VI-B1 shared analytics script: %.1f%% of sites (paper: 63%%)\n",
		s.AnalyticsShare)
	return &artifact.Result{Text: b.String(), Dataset: s}, nil
}

// CNCReport is the §VI-C throughput measurement.
type CNCReport struct {
	PayloadBytes        int     `json:"payload_bytes"`
	DownstreamLoopback  float64 `json:"downstream_loopback_bps"`  // B/s, 16-way concurrent, zero RTT
	DownstreamRTTConc   float64 `json:"downstream_rtt_conc_bps"`  // B/s, 16-way concurrent, 1 ms simulated RTT
	DownstreamRTTSeq    float64 `json:"downstream_rtt_seq_bps"`   // B/s, sequential, 1 ms simulated RTT
	UpstreamThroughput  float64 `json:"upstream_bps"`             // B/s
	BytesPerImage       int     `json:"bytes_per_image"`          // payload bytes per covert image
	OverheadBytesPerImg int     `json:"overhead_bytes_per_image"` // rendered SVG size
}

// Table flattens the report into metric/value rows.
func (r CNCReport) Table() (header []string, rows [][]string) {
	header = []string{"metric", "value"}
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 0, 64) }
	rows = [][]string{
		{"payload_bytes", fint(r.PayloadBytes)},
		{"downstream_loopback_bps", f(r.DownstreamLoopback)},
		{"downstream_rtt_conc_bps", f(r.DownstreamRTTConc)},
		{"downstream_rtt_seq_bps", f(r.DownstreamRTTSeq)},
		{"upstream_bps", f(r.UpstreamThroughput)},
		{"bytes_per_image", fint(r.BytesPerImage)},
		{"overhead_bytes_per_image", fint(r.OverheadBytesPerImg)},
	}
	return header, rows
}

// CNCThroughput measures the covert channel over a real loopback HTTP
// server. The headline rate uses the raw loopback; the concurrency
// comparison adds a 1 ms simulated RTT, because the channel is RTT-bound
// — which is exactly why the paper's 100 KB/s needs "a client which sends
// requests for multiple images simultaneously".
func CNCThroughput(env artifact.Env) (*artifact.Result, error) {
	payload := env.Param("payload")
	master := cnc.NewMasterServer()
	base, shutdown, err := master.Serve()
	if err != nil {
		return nil, err
	}
	defer func() { _ = shutdown() }()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	measure := func(tag string, data []byte, conc, batch int) (float64, error) {
		bot := &cnc.Bot{BaseURL: base, ID: fmt.Sprintf("bot-%s", tag), Concurrency: conc, BatchSize: batch}
		master.QueueCommand(bot.ID, data)
		start := time.Now()
		got, _, ok, err := bot.Poll(ctx)
		if err != nil || !ok {
			return 0, fmt.Errorf("poll failed: ok=%v err=%w", ok, err)
		}
		if !bytes.Equal(got, data) {
			return 0, fmt.Errorf("payload corrupted")
		}
		return float64(len(data)) / time.Since(start).Seconds(), nil
	}

	data := bytes.Repeat([]byte("C"), payload)
	loopback, err := measure("raw", data, 16, 0) // sprite-batched bulk path
	if err != nil {
		return nil, err
	}

	// RTT-bound comparison on a smaller payload (sequential at 1 ms per
	// request is slow by design — that is the point). Batching is pinned
	// to one image per request here: the paper's concurrency claim is
	// about a browser issuing many *individual* image fetches at once.
	master.Delay = time.Millisecond
	small := bytes.Repeat([]byte("c"), 2048)
	rttConc, err := measure("rtt-conc", small, 16, 1)
	if err != nil {
		return nil, err
	}
	rttSeq, err := measure("rtt-seq", small, 1, 1)
	if err != nil {
		return nil, err
	}
	master.Delay = 0

	upBot := &cnc.Bot{BaseURL: base, ID: "bot-up", Concurrency: 16}
	start := time.Now()
	if err := upBot.Upload(ctx, "bulk", data); err != nil {
		return nil, err
	}
	upRate := float64(payload) / time.Since(start).Seconds()

	svg := cnc.RenderSVG(cnc.Dim{W: 65535, H: 65535})
	rep := CNCReport{
		PayloadBytes:        payload,
		DownstreamLoopback:  loopback,
		DownstreamRTTConc:   rttConc,
		DownstreamRTTSeq:    rttSeq,
		UpstreamThroughput:  upRate,
		BytesPerImage:       cnc.BytesPerImage,
		OverheadBytesPerImg: len(svg),
	}
	var b strings.Builder
	fmt.Fprintf(&b, "payload: %d bytes, %d images of ~%d bytes (4 payload bytes each)\n",
		payload, cnc.ImagesNeeded(payload), rep.OverheadBytesPerImg)
	fmt.Fprintf(&b, "downstream, loopback, 16 concurrent:   %10.0f B/s\n", loopback)
	fmt.Fprintf(&b, "downstream, 1ms RTT, 16 concurrent:    %10.0f B/s\n", rttConc)
	fmt.Fprintf(&b, "downstream, 1ms RTT, sequential:       %10.0f B/s\n", rttSeq)
	fmt.Fprintf(&b, "upstream (URL-encoded):                %10.0f B/s\n", upRate)
	fmt.Fprintf(&b, "paper claim: ≈100KB/s downstream with simultaneous image requests\n")
	return &artifact.Result{Text: b.String(), Dataset: rep}, nil
}

// FlowEvent is one traced frame of a message-flow phase.
type FlowEvent struct {
	TimeMs float64 `json:"time_ms"`
	Src    string  `json:"src"`
	Dst    string  `json:"dst"`
	Bytes  int     `json:"bytes"`
}

// FlowPhase is one figure's traced message sequence.
type FlowPhase struct {
	Name   string      `json:"name"`
	Events []FlowEvent `json:"events"`
}

// FlowsData is the Figures 1/2/4 dataset.
type FlowsData []FlowPhase

// Table flattens the dataset for the CSV and Markdown renderers.
func (d FlowsData) Table() (header []string, rows [][]string) {
	header = []string{"phase", "time_ms", "src", "dst", "bytes"}
	for _, p := range d {
		for _, e := range p.Events {
			rows = append(rows, []string{p.Name,
				strconv.FormatFloat(e.TimeMs, 'f', 2, 64), e.Src, e.Dst, fint(e.Bytes)})
		}
	}
	return header, rows
}

// MessageFlows renders the Fig. 1 / Fig. 2 / Fig. 4 message sequences
// from the wire tap of a scripted kill-chain run: every frame delivered
// to its addressee, appended to the phase that is running.
func MessageFlows(artifact.Env) (*artifact.Result, error) {
	s, err := core.NewScenario(core.Config{Seed: 77})
	if err != nil {
		return nil, err
	}
	var phases FlowsData
	s.Net.SetWireTap(func(e netsim.WireEvent) {
		if e.Kind != netsim.WireDeliver && e.Kind != netsim.WireDupDeliver {
			return
		}
		p := &phases[len(phases)-1]
		p.Events = append(p.Events, FlowEvent{
			TimeMs: float64(e.Time.Microseconds()) / 1000,
			Src:    string(e.Src), Dst: string(e.Dst), Bytes: len(e.Payload),
		})
	})
	if err := scriptKillChain(s, "flow", func(name string) {
		phases = append(phases, FlowPhase{Name: name})
	}); err != nil {
		return nil, err
	}

	var out strings.Builder
	for _, ph := range phases {
		fmt.Fprintf(&out, "--- %s ---\n", ph.Name)
		for _, e := range ph.Events {
			fmt.Fprintf(&out, "%8.2fms  %-12s → %-12s  %4dB\n", e.TimeMs, e.Src, e.Dst, e.Bytes)
		}
	}
	return &artifact.Result{Text: out.String(), Dataset: phases}, nil
}
