package webcorpus

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestGenerateDefaultSize(t *testing.T) {
	c := Generate(Params{Seed: 1, Sites: 100})
	if len(c.Sites) != 100 {
		t.Fatalf("sites = %d", len(c.Sites))
	}
	if Generate(Params{Seed: 1}).Params.Sites != DefaultSites {
		t.Fatal("default size not applied")
	}
}

func TestSiteFieldsPopulated(t *testing.T) {
	c := Generate(Params{Sites: 500, Seed: 2})
	sslSeen := make(map[SSLVersion]int)
	for _, s := range c.Sites {
		if s.Host == "" || s.Rank == 0 {
			t.Fatalf("bad site %+v", s)
		}
		sslSeen[s.SSL]++
		if s.HSTS && s.SSL == SSLNone {
			t.Fatal("HSTS on a plaintext site")
		}
		if s.HSTSPreload && !s.HSTS {
			t.Fatal("preloaded without HSTS")
		}
		if s.CSP.Present && s.CSP.HeaderName == "" {
			t.Fatal("CSP present without header name")
		}
	}
	for _, v := range []SSLVersion{SSLNone, SSLv2, SSLv3, TLSModern} {
		if sslSeen[v] == 0 {
			t.Errorf("SSL class %s never generated", v)
		}
	}
}

func TestObjectsOnDayZeroStable(t *testing.T) {
	s := Generate(Params{Sites: 30, Seed: 4}).Sites[0]
	a := s.ObjectsOn(0)
	b := s.ObjectsOn(0)
	if len(a) != len(b) {
		t.Fatal("nondeterministic object count")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic object state")
		}
	}
}

func TestEternalObjectsKeepNameForever(t *testing.T) {
	c := Generate(Params{Sites: 200, Seed: 5})
	checked := 0
	for _, s := range c.Sites {
		for i, spec := range s.Objects {
			if spec.Kind != KindJS || spec.RenamePeriod != 0 {
				continue
			}
			checked++
			n0 := s.ObjectsOn(0)[i].Name
			n999 := s.ObjectsOn(999)[i].Name
			if n0 != n999 {
				t.Fatalf("eternal object renamed: %s -> %s", n0, n999)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no eternal objects generated")
	}
}

func TestPeriodicRenameChangesAtPeriod(t *testing.T) {
	c := Generate(Params{Sites: 200, Seed: 6})
	for _, s := range c.Sites {
		for i, spec := range s.Objects {
			if spec.RenamePeriod == 0 {
				continue
			}
			before := s.ObjectsOn(spec.RenamePeriod - 1)[i].Name
			after := s.ObjectsOn(spec.RenamePeriod)[i].Name
			if before == after {
				t.Fatalf("object not renamed at its period %d", spec.RenamePeriod)
			}
			return // one positive case suffices
		}
	}
	t.Fatal("no periodic objects generated")
}

func TestContentChangeChangesHashOnly(t *testing.T) {
	c := Generate(Params{Sites: 300, Seed: 7})
	for _, s := range c.Sites {
		for i, spec := range s.Objects {
			if spec.RenamePeriod != 0 || spec.ContentPeriod == 0 {
				continue
			}
			o1 := s.ObjectsOn(spec.ContentPeriod - 1)[i]
			o2 := s.ObjectsOn(spec.ContentPeriod)[i]
			if o1.Name != o2.Name {
				t.Fatal("name changed with content")
			}
			if o1.Hash == o2.Hash {
				t.Fatal("hash unchanged across content period")
			}
			return
		}
	}
	t.Skip("no name-stable content-churning objects in this seed")
}

func TestRenderPageListsObjects(t *testing.T) {
	c := Generate(Params{Sites: 50, Seed: 8})
	var site *Site
	for _, s := range c.Sites {
		if s.Responds {
			site = s
			break
		}
	}
	if site == nil {
		t.Fatal("no responders")
	}
	resp := site.RenderPage(3)
	if resp.StatusCode != 200 {
		t.Fatal("responder served non-200")
	}
	body := string(resp.Body)
	for _, o := range site.ObjectsOn(3) {
		if !strings.Contains(body, o.Name) {
			t.Fatalf("page missing object %s", o.Name)
		}
	}
	if resp.Header.Get("Content-Type") != "text/html" {
		t.Fatal("wrong content type")
	}
}

func TestSecurityHeadersMatchConfig(t *testing.T) {
	c := Generate(Params{Sites: 2000, Seed: 9})
	for _, s := range c.Sites {
		h := s.SecurityHeaders()
		if s.HSTS != h.Has("Strict-Transport-Security") {
			t.Fatal("HSTS header mismatch")
		}
		if s.CSP.Present && s.CSP.Value != "" && h.Get(s.CSP.HeaderName) == "" {
			t.Fatalf("CSP header %q missing", s.CSP.HeaderName)
		}
	}
}

func TestSharedAnalyticsObjectIdenticalEverywhere(t *testing.T) {
	c := Generate(Params{Sites: 300, Seed: 10})
	var name, hash string
	count := 0
	for _, s := range c.Sites {
		if !s.UsesGoogleAnalytics {
			continue
		}
		for _, o := range s.ObjectsOn(7) {
			if !strings.HasPrefix(o.Name, "analytics.example/") {
				continue
			}
			count++
			if name == "" {
				name, hash = o.Name, o.Hash
			} else if o.Name != name || o.Hash != hash {
				t.Fatal("shared analytics object differs between sites")
			}
		}
	}
	if count < 100 {
		t.Fatalf("analytics embedding count = %d, want a majority", count)
	}
}

func TestGenDeterministicProperty(t *testing.T) {
	f := func(seed int64, day uint8) bool {
		a := Generate(Params{Sites: 5, Seed: seed})
		b := Generate(Params{Sites: 5, Seed: seed})
		for i := range a.Sites {
			ao, bo := a.Sites[i].ObjectsOn(int(day)), b.Sites[i].ObjectsOn(int(day))
			for j := range ao {
				if ao[j] != bo[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[ObjectKind]string{KindJS: "js", KindCSS: "css", KindImg: "img", ObjectKind(0): "unknown"} {
		if k.String() != want {
			t.Errorf("kind %d = %q", k, k.String())
		}
	}
}

// TestRenderPageAllocs locks in the render hot path's allocation budget
// on cold sites: each measured render is the first of a site of a fresh
// corpus. The page is spelled from the site's specs by exact-size
// append, so a render costs a handful of allocations instead of one per
// formatted name and hash, and no site state fills on first use.
// Skipped in -short mode: the CI race detector perturbs counts.
func TestRenderPageAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; tier-1 runs this")
	}
	const runs = 100
	var cold []*Site
	for _, s := range Generate(Params{Sites: 300, Seed: 3}).Sites {
		if s.Responds {
			cold = append(cold, s)
		}
	}
	if len(cold) < 2*(runs+1) {
		t.Fatalf("%d responders, want %d", len(cold), 2*(runs+1))
	}
	// next returns a site no render has touched; AllocsPerRun calls its
	// function runs+1 times.
	next := func() *Site {
		s := cold[0]
		cold = cold[1:]
		return s
	}
	got := testing.AllocsPerRun(runs, func() {
		if resp := next().RenderPage(0); resp.StatusCode != 200 {
			t.Fatal("bad render")
		}
	})
	// Measured 3 on Go 1.24.0: body, response, header slice.
	if got > 3 {
		t.Errorf("RenderPage allocs/op = %.0f, want <= 3", got)
	}

	// The crawl renders into a reused buffer: one with room for the
	// page needs no allocation at all.
	buf := make([]byte, 0, 1<<14)
	got = testing.AllocsPerRun(runs, func() {
		buf, _ = next().AppendPage(buf[:0], 0)
	})
	if got != 0 {
		t.Errorf("AppendPage allocs/op into a warm buffer = %.0f, want 0", got)
	}
}

// TestGenerateAllocs holds corpus generation to its per-site budget:
// one slab of sites, and per site its host and its object specs, sized
// once (a CSP site also joins its policy). Skipped in -short mode: the
// CI race detector perturbs counts; `make allocs` runs it.
func TestGenerateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts shift under -race; make allocs runs this")
	}
	for _, sites := range []int{400, 15000} {
		runs := 20
		if sites > 1000 {
			runs = 2
		}
		got := testing.AllocsPerRun(runs, func() {
			Generate(Params{Sites: sites, Seed: 1})
		}) / float64(sites)
		t.Logf("Generate at %d sites: %.3f allocs per site", sites, got)
		// Measured 2.07 per site at both sizes on Go 1.24.0.
		if got > 2.13 {
			t.Errorf("Generate at %d sites: %.2f allocs per site, want <= 2.13", sites, got)
		}
	}
}

// TestRenderPageMatchesHistoricalRendering pins byte-identity of the
// exact-size renderer against the original strings.Builder+Fprintf
// formatting, which the golden artifacts were recorded under — served
// by RenderPage, and appended by AppendPage to a reused buffer that
// already holds bytes.
func TestRenderPageMatchesHistoricalRendering(t *testing.T) {
	const prefix = "HTTP/1.1 200 OK\r\n\r\n"
	var buf []byte
	c := Generate(Params{Sites: 40, Seed: 17})
	for _, s := range c.Sites {
		if !s.Responds {
			continue
		}
		for _, day := range []int{0, 3, 37} {
			var b strings.Builder
			b.WriteString("<html><head>")
			for _, o := range s.ObjectsOn(day) {
				switch o.Kind {
				case KindJS:
					fmt.Fprintf(&b, `<script src="%s" data-hash=%q></script>`, "//"+o.Name, o.Hash)
				case KindCSS:
					fmt.Fprintf(&b, `<link rel="stylesheet" href="%s">`, "//"+o.Name)
				case KindImg:
					fmt.Fprintf(&b, `<img src="%s">`, "//"+o.Name)
				}
			}
			b.WriteString("</head><body>")
			fmt.Fprintf(&b, "<h1>%s (rank %d)</h1>", s.Host, s.Rank)
			b.WriteString("</body></html>")
			if got := string(s.RenderPage(day).Body); got != b.String() {
				t.Fatalf("site %s day %d: rendered bytes diverge from historical formatting", s.Host, day)
			}
			buf = append(buf[:0], prefix...)
			var ok bool
			buf, ok = s.AppendPage(buf, day)
			if !ok || string(buf) != prefix+b.String() {
				t.Fatalf("site %s day %d: AppendPage into a reused buffer diverges from historical formatting", s.Host, day)
			}
		}
	}
}

// TestCorpusPagesMatchGolden pins the rendered bytes without the name
// and hash helpers that ObjectsOn shares with AppendPage: the SHA-256
// over every page of a seeded corpus on every study day, concatenated
// in site order, is the value recorded before the renderer spelled
// names and hashes straight from the specs.
func TestCorpusPagesMatchGolden(t *testing.T) {
	const want = "c7fd54ae7e02f083e6681527f67c397e24b992eeec2795e4d280cde183b88abb"
	sum := sha256.New()
	var page []byte
	for _, s := range Generate(Params{Sites: 200, Seed: 17}).Sites {
		for day := 0; day <= StudyDays; day++ {
			page, _ = s.AppendPage(page[:0], day)
			sum.Write(page)
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("pages of 200 sites × %d days: sha256 %.12s, want %.12s", StudyDays+1, got, want)
	}
}

// TestConcurrentRendersAgree renders one fresh corpus from several
// goroutines at once and requires every goroutine's pages to be the
// bytes a sequential render of an identical corpus gives. Under -race
// it also fails if rendering ever fills shared state lazily again.
func TestConcurrentRendersAgree(t *testing.T) {
	p := Params{Sites: 60, Seed: 12}
	render := func(c *Corpus) []byte {
		var out []byte
		for _, s := range c.Sites {
			for _, day := range []int{0, 9, 41} {
				out, _ = s.AppendPage(out, day)
			}
		}
		return out
	}
	c := Generate(p)
	got := make([][]byte, 4)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = render(c)
		}()
	}
	wg.Wait()
	want := render(Generate(p))
	for g, pages := range got {
		if !bytes.Equal(pages, want) {
			t.Errorf("goroutine %d rendered %d bytes that differ from the sequential %d", g, len(pages), len(want))
		}
	}
}

// TestSamePageIffSameBytes keeps the daily crawl's shortcut honest: over
// a seeded corpus and every pair of distinct days in [0, StudyDays],
// SamePage holds exactly when AppendPage renders identical bytes. It
// fails if a page ever gains an element that changes with the day but
// not with an object's generation.
func TestSamePageIffSameBytes(t *testing.T) {
	same, differ := 0, 0
	var page []byte
	for _, s := range Generate(Params{Sites: 60, Seed: 1}).Sites {
		if !s.Responds {
			continue
		}
		// version[d] numbers day d's page by its first day.
		version := make([]int, StudyDays+1)
		first := make(map[string]int)
		for day := range version {
			page, _ = s.AppendPage(page[:0], day)
			v, ok := first[string(page)]
			if !ok {
				v = day
				first[string(page)] = day
			}
			version[day] = v
		}
		for a := range version {
			for b := a + 1; b < len(version); b++ {
				if got, want := s.SamePage(a, b), version[a] == version[b]; got != want {
					t.Fatalf("%s: SamePage(%d, %d) = %v, want %v (whether the two pages are identical)", s.Host, a, b, got, want)
				}
				if version[a] == version[b] {
					same++
				} else {
					differ++
				}
			}
		}
	}
	if same == 0 || differ == 0 {
		t.Fatalf("%d identical and %d differing day pairs: the corpus does not exercise both", same, differ)
	}
}
