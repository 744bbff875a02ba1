package httpcache

import (
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"masterparasite/internal/httpsim"
)

func respWithCC(cc string, body string) *httpsim.Response {
	r := httpsim.NewResponse(200, []byte(body))
	if cc != "" {
		r.Header.Set("Cache-Control", cc)
	}
	return r
}

func TestParseCacheControl(t *testing.T) {
	cases := []struct {
		in   string
		want CacheControl
	}{
		{"max-age=60", CacheControl{MaxAge: time.Minute, HasMaxAge: true}},
		{"public, max-age=31536000, immutable", CacheControl{Public: true, MaxAge: 31536000 * time.Second, HasMaxAge: true, Immutable: true}},
		{"no-store", CacheControl{NoStore: true}},
		{"no-cache, private", CacheControl{NoCache: true, Private: true}},
		// s-maxage is its own field: only a shared cache reads it
		// (RFC 9111 §5.2.2.10).
		{"s-maxage=120", CacheControl{SMaxAge: 2 * time.Minute, HasSMaxAge: true}},
		{"max-age=10, s-maxage=120", CacheControl{MaxAge: 10 * time.Second, HasMaxAge: true, SMaxAge: 2 * time.Minute, HasSMaxAge: true}},
		{"s-maxage=120, max-age=10", CacheControl{MaxAge: 10 * time.Second, HasMaxAge: true, SMaxAge: 2 * time.Minute, HasSMaxAge: true}},
		// Of a repeated directive the first occurrence counts (RFC 9111
		// §4.2.1).
		{"max-age=10, max-age=20", CacheControl{MaxAge: 10 * time.Second, HasMaxAge: true}},
		{"s-maxage=30, s-maxage=60", CacheControl{SMaxAge: 30 * time.Second, HasSMaxAge: true}},
		{"max-age=bogus, max-age=20", CacheControl{MaxAge: 20 * time.Second, HasMaxAge: true}},
		{"max-age=bogus", CacheControl{}},
		{"", CacheControl{}},
		{"unknown-directive, max-age=5", CacheControl{MaxAge: 5 * time.Second, HasMaxAge: true}},
		{"max-age=+5", CacheControl{}},
		// delta-seconds past 2³¹ counts as 2³¹ seconds (RFC 9111 §1.2.2),
		// whatever its digit count.
		{"max-age=2147483647", CacheControl{MaxAge: (1<<31 - 1) * time.Second, HasMaxAge: true}},
		{"max-age=2147483648", CacheControl{MaxAge: 1 << 31 * time.Second, HasMaxAge: true}},
		{"max-age=9999999999", CacheControl{MaxAge: 1 << 31 * time.Second, HasMaxAge: true}},
		{"s-maxage=99999999999", CacheControl{SMaxAge: 1 << 31 * time.Second, HasSMaxAge: true}},
		{"max-age=99999999999999999999", CacheControl{MaxAge: 1 << 31 * time.Second, HasMaxAge: true}},
	}
	for _, c := range cases {
		if got := ParseCacheControl(c.in); got != c.want {
			t.Errorf("ParseCacheControl(%q) = %+v, want %+v", c.in, got, c.want)
		}
	}
}

// TestEntryIgnoresSMaxAge: s-maxage scopes to shared caches (RFC 9111
// §5.2.2.10), so the private cache's entry lives by max-age, or by the
// heuristic lifetime when only s-maxage is given.
func TestEntryIgnoresSMaxAge(t *testing.T) {
	for _, c := range []struct {
		cc   string
		want time.Duration
	}{
		{"s-maxage=120", DefaultHeuristicTTL},
		{"max-age=10, s-maxage=120", 10 * time.Second},
	} {
		if e := EntryFromResponse(0, "a.com/x.js", respWithCC(c.cc, "x"), false); e == nil || e.TTL != c.want {
			t.Errorf("Cache-Control %q: entry %+v, want TTL %v", c.cc, e, c.want)
		}
	}
}

func TestEntryFromResponseFreshness(t *testing.T) {
	e := EntryFromResponse(0, "a.com/x.js", respWithCC("max-age=60", "body"), false)
	if e == nil {
		t.Fatal("entry is nil")
	}
	if !e.Fresh(59 * time.Second) {
		t.Fatal("entry stale before max-age")
	}
	if e.Fresh(61 * time.Second) {
		t.Fatal("entry fresh after max-age")
	}
}

func TestEntryNoStoreUncacheable(t *testing.T) {
	if e := EntryFromResponse(0, "a.com/x", respWithCC("no-store", "x"), false); e != nil {
		t.Fatal("no-store response produced an entry")
	}
}

func TestEntryNoCacheNeverFresh(t *testing.T) {
	e := EntryFromResponse(0, "a.com/x", respWithCC("no-cache, max-age=60", "x"), false)
	if e == nil {
		t.Fatal("nil entry")
	}
	if e.Fresh(time.Second) {
		t.Fatal("no-cache entry reported fresh")
	}
}

func TestEntryHeuristicTTL(t *testing.T) {
	e := EntryFromResponse(0, "a.com/x", respWithCC("", "x"), false)
	if e.TTL != DefaultHeuristicTTL {
		t.Fatalf("TTL = %v, want heuristic %v", e.TTL, DefaultHeuristicTTL)
	}
}

// TestHeuristicFreshnessOnlyForCacheableCodes: without explicit
// freshness only the codes RFC 9110 §15.1 lists as heuristically
// cacheable are stored (RFC 9111 §4.2.2), so a transient 500 is not
// served from cache for DefaultHeuristicTTL, while a 404 still is; with
// a max-age, or an s-maxage in a shared cache, any status is stored.
func TestHeuristicFreshnessOnlyForCacheableCodes(t *testing.T) {
	for _, c := range []struct {
		code   int
		cc     string
		shared bool
		want   time.Duration // 0: not stored
	}{
		{500, "", false, 0},
		{500, "", true, 0},
		{403, "", false, 0},
		{302, "", false, 0},
		{400, "", false, 0},
		{304, "", false, 0},
		{500, "s-maxage=30", false, 0},
		{404, "", false, DefaultHeuristicTTL},
		{404, "", true, DefaultHeuristicTTL},
		{200, "", false, DefaultHeuristicTTL},
		{301, "", false, DefaultHeuristicTTL},
		{501, "", false, DefaultHeuristicTTL},
		{500, "max-age=60", false, time.Minute},
		{500, "s-maxage=30", true, 30 * time.Second},
	} {
		resp := httpsim.NewResponse(c.code, []byte("x"))
		if c.cc != "" {
			resp.Header.Set("Cache-Control", c.cc)
		}
		e := EntryFromResponse(0, "a.com/x", resp, c.shared)
		switch {
		case c.want == 0 && e != nil:
			t.Errorf("%d %q (shared %v): stored with TTL %v, want not stored", c.code, c.cc, c.shared, e.TTL)
		case c.want != 0 && (e == nil || e.TTL != c.want || e.Response.StatusCode != c.code):
			t.Errorf("%d %q (shared %v): entry %+v, want %d with TTL %v", c.code, c.cc, c.shared, e, c.code, c.want)
		}
	}
}

// TestSharedEntryRule: a shared cache refuses private responses and
// lives by s-maxage in place of max-age (RFC 9111 §5.2.2.7, §5.2.2.10);
// the private cache stores the first and ignores the second.
func TestSharedEntryRule(t *testing.T) {
	for _, c := range []struct {
		cc     string
		shared bool
		stored bool
		ttl    time.Duration
	}{
		{"private, max-age=600", false, true, 10 * time.Minute},
		{"private, max-age=600", true, false, 0},
		{"max-age=10, s-maxage=120", false, true, 10 * time.Second},
		{"max-age=10, s-maxage=120", true, true, 2 * time.Minute},
		{"s-maxage=0, max-age=60", true, true, 0},
	} {
		e := EntryFromResponse(0, "a.com/x", respWithCC(c.cc, "x"), c.shared)
		if (e != nil) != c.stored || e != nil && e.TTL != c.ttl {
			t.Errorf("%q (shared %v): entry %+v, want stored=%v with TTL %v", c.cc, c.shared, e, c.stored, c.ttl)
		}
	}
}

// TestStorePutGet: the store hands back the entry it was given, and the
// entry holds the response it was derived from, not a copy.
func TestStorePutGet(t *testing.T) {
	s := NewStore(Options{Capacity: 1 << 20})
	resp := respWithCC("max-age=60", "body")
	s.Put("a.com", EntryFromResponse(0, "a.com/x.js", resp, false))
	got, ok := s.Get("a.com", "a.com/x.js")
	if !ok || got.Response != resp {
		t.Fatal("get after put failed")
	}
	if _, ok := s.GetFresh(30*time.Second, "a.com", "a.com/x.js"); !ok {
		t.Fatal("fresh lookup failed")
	}
	if _, ok := s.GetFresh(2*time.Minute, "a.com", "a.com/x.js"); ok {
		t.Fatal("stale entry returned as fresh")
	}
}

func TestStoreReplaceSameKey(t *testing.T) {
	s := NewStore(Options{Capacity: 1 << 20})
	s.Put("", EntryFromResponse(0, "a.com/x", respWithCC("max-age=9", "old"), false))
	s.Put("", EntryFromResponse(0, "a.com/x", respWithCC("max-age=9", "new"), false))
	if s.Len() != 1 {
		t.Fatalf("len = %d, want 1", s.Len())
	}
	got, _ := s.Get("", "a.com/x")
	if string(got.Response.Body) != "new" {
		t.Fatalf("body = %q, want new", got.Response.Body)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Three ~equal entries in a cache that fits two: touching the oldest
	// should protect it under LRU.
	mkEntry := func(url string) *Entry {
		return EntryFromResponse(0, url, respWithCC("max-age=60", "0123456789"), false)
	}
	one := mkEntry("a.com/1")
	cap2 := int64(one.Size()*2 + 4)
	s := NewStore(Options{Capacity: cap2, Policy: LRU})
	s.Put("", mkEntry("a.com/1"))
	s.Put("", mkEntry("a.com/2"))
	s.Get("", "a.com/1") // touch 1 → 2 becomes LRU victim
	s.Put("", mkEntry("a.com/3"))
	if !s.Contains("", "a.com/1") || s.Contains("", "a.com/2") || !s.Contains("", "a.com/3") {
		t.Fatalf("LRU kept %v", s.URLs())
	}
	if s.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Stats().Evictions)
	}
}

func TestFIFOEvictionIgnoresRecency(t *testing.T) {
	mkEntry := func(url string) *Entry {
		return EntryFromResponse(0, url, respWithCC("max-age=60", "0123456789"), false)
	}
	one := mkEntry("a.com/1")
	s := NewStore(Options{Capacity: int64(one.Size()*2 + 4), Policy: FIFO})
	s.Put("", mkEntry("a.com/1"))
	s.Put("", mkEntry("a.com/2"))
	s.Get("", "a.com/1") // touching must not matter under FIFO
	s.Put("", mkEntry("a.com/3"))
	if s.Contains("", "a.com/1") {
		t.Fatalf("FIFO kept the oldest entry: %v", s.URLs())
	}
}

func TestEvictionFloodSupplantsVictimObjects(t *testing.T) {
	// The §IV attack in miniature: cached objects of popular.com are
	// supplanted by a flood of attacker junk objects.
	s := NewStore(Options{Capacity: 4096})
	s.Put("", EntryFromResponse(0, "popular.com/app.js", respWithCC("max-age=3600", "important"), false))
	for i := 0; i < 100; i++ {
		url := fmt.Sprintf("attacker.com/junk%02d.jpg", i)
		s.Put("", EntryFromResponse(0, url, respWithCC("max-age=3600", string(make([]byte, 200))), false))
	}
	if s.Contains("", "popular.com/app.js") {
		t.Fatal("victim object survived the eviction flood")
	}
	if s.Size() > s.Capacity() {
		t.Fatalf("size %d over capacity %d", s.Size(), s.Capacity())
	}
}

func TestBallooningNeverEvicts(t *testing.T) {
	// IE's behaviour (Table I): memory grows without bound instead of
	// evicting — the DOS remark.
	s := NewStore(Options{Capacity: 1024, Ballooning: true})
	for i := 0; i < 50; i++ {
		url := fmt.Sprintf("x.com/%d", i)
		s.Put("", EntryFromResponse(0, url, respWithCC("max-age=60", string(make([]byte, 100))), false))
	}
	if s.Stats().Evictions != 0 {
		t.Fatal("ballooning store evicted")
	}
	if s.Size() <= s.Capacity() {
		t.Fatal("ballooning store did not exceed capacity")
	}
	if s.Len() != 50 {
		t.Fatalf("len = %d, want 50", s.Len())
	}
}

func TestPartitionedStoreIsolatesContexts(t *testing.T) {
	// §VIII countermeasure: with partitioning, an entry cached under one
	// top-level site is invisible to another.
	s := NewStore(Options{Capacity: 1 << 20, Partitioned: true})
	s.Put("site-a.com", EntryFromResponse(0, "cdn.com/lib.js", respWithCC("max-age=60", "lib"), false))
	if _, ok := s.Get("site-b.com", "cdn.com/lib.js"); ok {
		t.Fatal("partitioned cache leaked across contexts")
	}
	if _, ok := s.Get("site-a.com", "cdn.com/lib.js"); !ok {
		t.Fatal("partitioned cache lost its own entry")
	}
}

func TestUnpartitionedStoreShared(t *testing.T) {
	s := NewStore(Options{Capacity: 1 << 20})
	s.Put("site-a.com", EntryFromResponse(0, "cdn.com/lib.js", respWithCC("max-age=60", "lib"), false))
	if _, ok := s.Get("site-b.com", "cdn.com/lib.js"); !ok {
		t.Fatal("shared cache should serve any context")
	}
}

func TestClearAndDelete(t *testing.T) {
	s := NewStore(Options{Capacity: 1 << 20})
	s.Put("", EntryFromResponse(0, "a.com/1", respWithCC("max-age=60", "x"), false))
	s.Put("", EntryFromResponse(0, "a.com/2", respWithCC("max-age=60", "y"), false))
	s.Clear()
	if s.Len() != 0 || s.Size() != 0 {
		t.Fatal("clear left residue")
	}
}

func TestCountWhere(t *testing.T) {
	s := NewStore(Options{})
	s.Put("", EntryFromResponse(0, "a.com/1.js", respWithCC("max-age=60", "x"), false))
	s.Put("", EntryFromResponse(0, "a.com/1.png", respWithCC("max-age=60", "x"), false))
	n := s.CountWhere(func(e *Entry) bool { return e.URL[len(e.URL)-3:] == ".js" })
	if n != 1 {
		t.Fatalf("CountWhere = %d", n)
	}
}

func TestSizeInvariantUnderCapacity(t *testing.T) {
	// Property: after any sequence of puts, size ≤ capacity (non-
	// ballooning) and size equals the sum of entry sizes.
	f := func(bodies [][]byte) bool {
		s := NewStore(Options{Capacity: 2048})
		for i, b := range bodies {
			if len(b) > 512 {
				b = b[:512]
			}
			url := fmt.Sprintf("d%d.com/o", i)
			s.Put("", EntryFromResponse(0, url, respWithCC("max-age=5", string(b)), false))
		}
		var sum int64
		for _, u := range s.URLs() {
			e, ok := s.Get("", u)
			if !ok {
				return false
			}
			sum += int64(e.Size())
		}
		return s.Size() <= 2048 && s.Size() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCookieJar(t *testing.T) {
	j := NewCookieJar()
	j.Set("bank.com", "session", "s3cr3t")
	j.Set("bank.com", "abtest", "7")
	j.Set("mail.com", "sid", "x")
	if v, ok := j.Get("bank.com", "session"); !ok || v != "s3cr3t" {
		t.Fatal("cookie get failed")
	}
	if got := j.All("bank.com"); got != "abtest=7; session=s3cr3t" {
		t.Fatalf("All = %q", got)
	}
	if got := j.All("none.com"); got != "" {
		t.Fatalf("All(none) = %q", got)
	}
	if j.Len() != 3 {
		t.Fatalf("len = %d", j.Len())
	}
	j.Clear()
	if j.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestCacheAPIStoreLifecycle(t *testing.T) {
	s := NewCacheAPIStore()
	resp := respWithCC("no-store", "parasite")
	s.Put("top1.com/persistent.js", resp)
	// The Cache API ignores HTTP's storage rule and freshness entirely,
	// and keeps the response it was given.
	if got, ok := s.Get("top1.com/persistent.js"); !ok || got != resp {
		t.Fatal("cache API get failed")
	}
	if s.Len() != 1 {
		t.Fatalf("len = %d", s.Len())
	}
	s.Clear()
	if s.Len() != 0 {
		t.Fatal("clear failed")
	}
}

func TestStatsCounting(t *testing.T) {
	s := NewStore(Options{})
	s.Put("", EntryFromResponse(0, "a.com/x", respWithCC("max-age=60", "x"), false))
	s.Get("", "a.com/x")
	s.Get("", "a.com/missing")
	st := s.Stats()
	if st.Puts != 1 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "LRU" || FIFO.String() != "FIFO" || Policy(0).String() != "unknown" {
		t.Fatal("policy strings wrong")
	}
}
