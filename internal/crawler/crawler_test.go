package crawler

import (
	"math"
	"reflect"
	"testing"

	"masterparasite/internal/runner"
	"masterparasite/internal/webcorpus"
)

// testRunner fans crawl jobs out over all available cores; every
// statistic is deterministic regardless of the worker count.
func testRunner() *runner.Runner { return runner.New(0) }

// testCorpus is used for the (expensive) daily-crawl tests. The full
// run uses 3000 sites, keeping the statistics tight (±2.5%); -short
// shrinks the population so the race-detector CI run stays fast, at
// the cost of wider (but still deterministic, fixed-seed) tolerances.
func testCorpus() *webcorpus.Corpus {
	sites := 3000
	if testing.Short() {
		sites = 800
	}
	return webcorpus.Generate(webcorpus.Params{Sites: sites, Seed: 11})
}

// headerCorpus is larger: the survey crawls each site once, so a bigger
// sample sharpens the small CSP population's statistics.
func headerCorpus() *webcorpus.Corpus {
	sites := 12000
	if testing.Short() {
		sites = 4000
	}
	return webcorpus.Generate(webcorpus.Params{Sites: sites, Seed: 13})
}

// tol widens a full-run tolerance in -short mode, where the smaller
// population has more sampling noise around the paper's anchors.
func tol(full float64) float64 {
	if testing.Short() {
		return 2 * full
	}
	return full
}

func within(t *testing.T, name string, got, want, tolerance float64) {
	t.Helper()
	if math.Abs(got-want) > tolerance {
		t.Errorf("%s = %.2f, want %.2f ± %.1f", name, got, want, tolerance)
	}
}

func TestPersistencyCurveShape(t *testing.T) {
	t.Parallel()
	days := 100
	if testing.Short() {
		days = 40
	}
	c := testCorpus()
	res := CrawlPersistency(testRunner(), c, days)
	if len(res.Points) != days+1 {
		t.Fatalf("points = %d", len(res.Points))
	}

	// Fig. 3 anchors: ≈87.5% name-persistent at 5 days, ≈75.3% at 100.
	within(t, "persistent(name) day 5", res.At(5).PersistentName, 87.5, tol(2.5))
	if !testing.Short() {
		within(t, "persistent(name) day 100", res.At(100).PersistentName, 75.3, 2.5)
	}

	// The hash curve sits at or below the name curve everywhere: a file
	// cannot be content-stable under a changed name (our generator ties
	// content generation to renames).
	for _, p := range res.Points {
		if p.PersistentHash > p.PersistentName+1e-9 {
			t.Fatalf("day %d: hash %.2f above name %.2f", p.Day, p.PersistentHash, p.PersistentName)
		}
		if p.PersistentName > p.AnyJS+1e-9 {
			t.Fatalf("day %d: name %.2f above anyJS %.2f", p.Day, p.PersistentName, p.AnyJS)
		}
	}

	// Monotone (non-increasing) persistence.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].PersistentName > res.Points[i-1].PersistentName+1e-9 {
			t.Fatalf("persistence increased at day %d", res.Points[i].Day)
		}
	}

	// AnyJS stays roughly flat near 88-89%.
	within(t, "any .js last day", res.At(days).AnyJS, 88.5, tol(2.5))
}

func TestPersistencyDeterministic(t *testing.T) {
	t.Parallel()
	a := CrawlPersistency(testRunner(), webcorpus.Generate(webcorpus.Params{Sites: 200, Seed: 5}), 10)
	b := CrawlPersistency(testRunner(), webcorpus.Generate(webcorpus.Params{Sites: 200, Seed: 5}), 10)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatalf("day %d differs between identical corpora", i)
		}
	}
}

// TestParallelCrawlMatchesSequential pins the fleet-runner guarantee at
// the crawler level: any worker count produces bit-identical curves and
// survey tallies.
func TestParallelCrawlMatchesSequential(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 300, Seed: 7})
	seqCrawl := CrawlPersistency(runner.New(1), c, 15)
	seqSurvey := SurveyHeaders(runner.New(1), c)
	for _, workers := range []int{4, 8} {
		parCrawl := CrawlPersistency(runner.New(workers), c, 15)
		if !reflect.DeepEqual(seqCrawl, parCrawl) {
			t.Fatalf("workers=%d: persistency curves differ from sequential", workers)
		}
		parSurvey := SurveyHeaders(runner.New(workers), c)
		if !reflect.DeepEqual(seqSurvey, parSurvey) {
			t.Fatalf("workers=%d: header survey differs from sequential", workers)
		}
	}
}

// TestCrawlPersistencyAllNonResponders pins the zero-crawl guard: a
// corpus where every site 404s has no denominator, and the crawl must
// report an empty result instead of NaN percentages.
func TestCrawlPersistencyAllNonResponders(t *testing.T) {
	t.Parallel()
	c := &webcorpus.Corpus{Sites: []*webcorpus.Site{
		{Rank: 1, Host: "dead1.example", Responds: false},
		{Rank: 2, Host: "dead2.example", Responds: false},
	}}
	res := CrawlPersistency(testRunner(), c, 10)
	if res.Sites != 0 {
		t.Fatalf("Sites = %d, want 0", res.Sites)
	}
	if len(res.Points) != 0 {
		t.Fatalf("Points = %d, want none", len(res.Points))
	}
	for _, day := range []int{0, 5, 100} {
		p := res.At(day)
		if p != (PersistencyPoint{}) {
			t.Fatalf("At(%d) = %+v, want zero point", day, p)
		}
		if math.IsNaN(p.AnyJS) || math.IsNaN(p.PersistentName) || math.IsNaN(p.PersistentHash) {
			t.Fatalf("At(%d) produced NaN: %+v", day, p)
		}
	}
}

// TestPersistencyResultAt covers the binary-search lookup: exact days,
// days between points, and days before the first point.
func TestPersistencyResultAt(t *testing.T) {
	t.Parallel()
	r := &PersistencyResult{Points: []PersistencyPoint{
		{Day: 0, AnyJS: 10},
		{Day: 5, AnyJS: 50},
		{Day: 20, AnyJS: 20},
	}}
	cases := []struct {
		day  int
		want int // expected Day of the returned point
	}{
		{day: 0, want: 0},   // exact first
		{day: 5, want: 5},   // exact middle
		{day: 20, want: 20}, // exact last
		{day: 3, want: 0},   // between first and second
		{day: 19, want: 5},  // between second and third
		{day: 99, want: 20}, // past the end
		{day: -4, want: 0},  // before the first point
	}
	for _, c := range cases {
		if got := r.At(c.day); got.Day != c.want {
			t.Errorf("At(%d).Day = %d, want %d", c.day, got.Day, c.want)
		}
	}

	// Matches the historical linear scan on the real curve.
	res := CrawlPersistency(testRunner(), webcorpus.Generate(webcorpus.Params{Sites: 100, Seed: 5}), 12)
	for day := -1; day <= 14; day++ {
		want := res.Points[0]
		for _, p := range res.Points {
			if p.Day <= day {
				want = p
			}
		}
		if got := res.At(day); got != want {
			t.Fatalf("At(%d) = %+v, want %+v", day, got, want)
		}
	}
}

// TestSelectTargetsSameAtAnyWorkerCount pins the fold: the selection
// is identical whether the baseline and last-day crawls run on one
// worker or four.
func TestSelectTargetsSameAtAnyWorkerCount(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 300, Seed: 3})
	want := SelectTargets(runner.New(1), c, 30)
	if got := SelectTargets(runner.New(4), c, 30); !reflect.DeepEqual(want, got) {
		t.Fatal("SelectTargets at 4 workers differs from 1 worker")
	}
}

func TestSelectTargetsStableNames(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 300, Seed: 3})
	targets := SelectTargets(testRunner(), c, 30)
	if len(targets) == 0 {
		t.Fatal("no targets selected")
	}
	// Every selected target must really be name-stable over the window.
	for host, names := range targets {
		var site *webcorpus.Site
		for _, s := range c.Sites {
			if s.Host == host {
				site = s
				break
			}
		}
		if site == nil {
			t.Fatalf("target host %s not in corpus", host)
		}
		day30 := make(map[string]bool)
		for _, o := range site.ObjectsOn(30) {
			day30[o.Name] = true
		}
		for _, n := range names {
			if !day30[n] {
				t.Fatalf("selected target %s absent on day 30", n)
			}
		}
	}
}

func TestHeaderSurveyMarginals(t *testing.T) {
	t.Parallel()
	s := SurveyHeaders(testRunner(), headerCorpus())

	// §V: 21% no HTTPS, ~7% vulnerable SSL.
	within(t, "no-HTTPS share", s.NoHTTPSShare, 21, tol(2.5))
	within(t, "vulnerable SSL share", s.VulnSSLShare, 7, tol(1.5))

	// §V: 67.92% of responders without HSTS; preload rare; ~96.6%
	// SSL-strippable.
	within(t, "no-HSTS share", s.NoHSTSShare, 67.92, tol(3.0))
	within(t, "strippable share", s.StrippableShare, 96.59, tol(1.5))
	if s.PreloadCount == 0 {
		t.Error("no preloaded sites at all")
	}

	// Fig. 5: ~4.7% supply CSP, ~15.3% of those deprecated.
	within(t, "CSP header share", s.CSPHeaderShare, 4.7, tol(1.2))
	within(t, "deprecated CSP share", s.DeprecatedShare, 15.3, tol(7.0))
	if s.ConnectSrcUses == 0 {
		t.Error("no connect-src usage observed")
	}
	if s.ConnectSrcStar == 0 {
		t.Error("no connect-src wildcard observed")
	}
	if s.ConnectSrcStar >= s.ConnectSrcUses {
		t.Error("wildcards exceed total connect-src uses")
	}
	if s.VersionCounts["CSP"] == 0 {
		t.Error("no modern CSP observed")
	}

	// Responders ≈ 89.5% (13419/15000 in the paper).
	within(t, "responder share", 100*float64(s.Responders)/float64(s.Sites), 89.46, tol(2.0))
}

func TestAnalyticsShare(t *testing.T) {
	t.Parallel()
	got := AnalyticsShare(testCorpus())
	within(t, "analytics share", got, 63, tol(3.0))
}

func TestCorpusDeterminism(t *testing.T) {
	t.Parallel()
	a := webcorpus.Generate(webcorpus.Params{Sites: 50, Seed: 9})
	b := webcorpus.Generate(webcorpus.Params{Sites: 50, Seed: 9})
	for i := range a.Sites {
		ao, bo := a.Sites[i].ObjectsOn(37), b.Sites[i].ObjectsOn(37)
		if len(ao) != len(bo) {
			t.Fatal("object count differs")
		}
		for j := range ao {
			if ao[j] != bo[j] {
				t.Fatalf("site %d object %d differs", i, j)
			}
		}
	}
}

func TestRenamedObjectChangesNameAndHash(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 100, Seed: 2})
	foundRename := false
	for _, s := range c.Sites {
		d0 := s.ObjectsOn(0)
		d99 := s.ObjectsOn(99)
		names99 := make(map[string]string)
		for _, o := range d99 {
			names99[o.Name] = o.Hash
		}
		for i, o := range d0 {
			if h, ok := names99[o.Name]; ok && h == o.Hash {
				continue
			}
			_ = i
			foundRename = true
		}
	}
	if !foundRename {
		t.Fatal("no churn in 100 sites over 99 days — generator broken")
	}
}

func TestNonRespondingSiteCrawl(t *testing.T) {
	t.Parallel()
	c := webcorpus.Generate(webcorpus.Params{Sites: 400, Seed: 8})
	nonResponders := 0
	for _, s := range c.Sites {
		if !s.Responds {
			nonResponders++
			if s.RenderPage(0).StatusCode == 200 {
				t.Fatal("non-responder served a page")
			}
		}
	}
	if nonResponders == 0 {
		t.Fatal("every site responds; responder modelling missing")
	}
}
