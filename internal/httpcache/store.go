package httpcache

import (
	"container/list"
	"sort"
	"strings"
	"time"

	"masterparasite/internal/httpsim"
)

// Entry is one cached object: the stored response itself, never a copy
// of it (RFC 9111 §4 reuses the response it stored), and the cache's
// metadata beside it. A response is read-only once built, so the entry
// and every serve of it share one message.
type Entry struct {
	URL      string            // host-qualified URL, query included: the cache key
	Response *httpsim.Response // as stored, and served as it is
	StoredAt time.Duration
	TTL      time.Duration // freshness lifetime at StoredAt
	NoCache  bool          // requires revalidation even while fresh
}

// DefaultHeuristicTTL applies when a response carries no explicit
// freshness information (RFC 9111 §4.2.2 heuristic).
const DefaultHeuristicTTL = 10 * time.Minute

// heuristicallyCacheable reports whether a response with this status
// may be stored without explicit freshness: RFC 9111 §4.2.2 allows a
// heuristic lifetime only for the codes RFC 9110 §15.1 lists. Any
// other status, a transient 500 included, is stored only with a
// lifetime of its own.
func heuristicallyCacheable(code int) bool {
	switch code {
	case 200, 203, 204, 206, 300, 301, 308, 404, 405, 410, 414, 501:
		return true
	}
	return false
}

// EntryFromResponse derives a cache entry from a response, or nil when
// the response may not be stored. It is the one storage rule for the
// browser's private cache and the shared proxy caches: no-store is never
// stored, and neither is a status that is not heuristically cacheable
// unless it carries explicit freshness. The TTL is max-age; a shared
// cache also refuses private responses, and s-maxage, when present, is
// its lifetime in place of max-age (RFC 9111 §5.2.2.7, §5.2.2.10). The
// entry holds resp itself.
func EntryFromResponse(now time.Duration, url string, resp *httpsim.Response, shared bool) *Entry {
	cc := ParseCacheControl(resp.Header.Get("Cache-Control"))
	if cc.NoStore || shared && cc.Private {
		return nil
	}
	var ttl time.Duration
	switch {
	case shared && cc.HasSMaxAge:
		ttl = cc.SMaxAge
	case cc.HasMaxAge:
		ttl = cc.MaxAge
	case heuristicallyCacheable(resp.StatusCode):
		ttl = DefaultHeuristicTTL
	default:
		return nil
	}
	return &Entry{URL: url, Response: resp, StoredAt: now, TTL: ttl, NoCache: cc.NoCache}
}

// Fresh reports whether the entry may be served without revalidation.
func (e *Entry) Fresh(now time.Duration) bool {
	if e.NoCache {
		return false
	}
	return now-e.StoredAt < e.TTL
}

// Size is the entry's accounting size in bytes.
func (e *Entry) Size() int {
	n := len(e.Response.Body) + len(e.URL)
	for _, f := range e.Response.Header {
		n += len(f.Key) + len(f.Value)
	}
	return n
}

// Policy selects the replacement algorithm.
type Policy int

// Replacement policies found in the surveyed browsers.
const (
	LRU Policy = iota + 1
	FIFO
)

// String names the policy.
func (p Policy) String() string {
	switch p {
	case LRU:
		return "LRU"
	case FIFO:
		return "FIFO"
	default:
		return "unknown"
	}
}

// Options configures a Store.
type Options struct {
	// Capacity is the size budget in bytes. Zero means unbounded.
	Capacity int64
	// Policy is the replacement algorithm (default LRU).
	Policy Policy
	// Partitioned keys entries by (calling context, URL) instead of URL
	// alone — the cache-partitioning countermeasure of §VIII.
	Partitioned bool
	// Ballooning disables eviction entirely: the cache grows without
	// bound, modelling Internet Explorer's behaviour in Table I ("it
	// appears to allocate more and more space to the memory until the
	// operating system shuts down processes").
	Ballooning bool
}

// Stats counts store activity.
type Stats struct {
	Hits      int
	Misses    int
	Puts      int
	Evictions int
}

type storeItem struct {
	key   string
	entry *Entry
	elem  *list.Element
}

// Store is a capacity-bounded object cache.
type Store struct {
	opts  Options
	items map[string]*storeItem
	order *list.List // front = next eviction victim
	size  int64
	stats Stats
}

// NewStore builds a store with the given options.
func NewStore(opts Options) *Store {
	if opts.Policy == 0 {
		opts.Policy = LRU
	}
	return &Store{
		opts:  opts,
		items: make(map[string]*storeItem),
		order: list.New(),
	}
}

func (s *Store) key(partition, url string) string {
	if s.opts.Partitioned {
		return partition + "\x00" + url
	}
	return url
}

// Put stores an entry (replacing any same-key entry) and evicts to
// capacity. partition is the calling context (the top-level site) and is
// ignored unless the store is partitioned.
func (s *Store) Put(partition string, e *Entry) {
	if e == nil {
		return
	}
	k := s.key(partition, e.URL)
	s.stats.Puts++
	if old, ok := s.items[k]; ok {
		s.size -= int64(old.entry.Size())
		s.order.Remove(old.elem)
		delete(s.items, k)
	}
	it := &storeItem{key: k, entry: e}
	it.elem = s.order.PushBack(it)
	s.items[k] = it
	s.size += int64(e.Size())
	if !s.opts.Ballooning {
		s.evictToCapacity()
	}
}

func (s *Store) evictToCapacity() {
	if s.opts.Capacity <= 0 {
		return
	}
	for s.size > s.opts.Capacity && s.order.Len() > 0 {
		front := s.order.Front()
		it, ok := front.Value.(*storeItem)
		if !ok {
			return
		}
		s.removeItem(it)
		s.stats.Evictions++
	}
}

func (s *Store) removeItem(it *storeItem) {
	s.order.Remove(it.elem)
	delete(s.items, it.key)
	s.size -= int64(it.entry.Size())
}

// Get returns the entry for url, fresh or stale, updating recency under
// LRU. The caller decides whether staleness forces revalidation.
func (s *Store) Get(partition, url string) (*Entry, bool) {
	it, ok := s.items[s.key(partition, url)]
	if !ok {
		s.stats.Misses++
		return nil, false
	}
	s.stats.Hits++
	if s.opts.Policy == LRU {
		s.order.MoveToBack(it.elem)
	}
	return it.entry, true
}

// GetFresh returns the entry only if it is fresh at now.
func (s *Store) GetFresh(now time.Duration, partition, url string) (*Entry, bool) {
	e, ok := s.Get(partition, url)
	if !ok || !e.Fresh(now) {
		return nil, false
	}
	return e, true
}

// Contains reports presence without touching recency or stats.
func (s *Store) Contains(partition, url string) bool {
	_, ok := s.items[s.key(partition, url)]
	return ok
}

// Clear empties the store (the browser's "clear cache" action).
func (s *Store) Clear() {
	s.items = make(map[string]*storeItem)
	s.order.Init()
	s.size = 0
}

// Len returns the number of entries.
func (s *Store) Len() int { return len(s.items) }

// Size returns the accounted byte size.
func (s *Store) Size() int64 { return s.size }

// Capacity returns the configured byte budget.
func (s *Store) Capacity() int64 { return s.opts.Capacity }

// Stats returns a copy of the counters.
func (s *Store) Stats() Stats { return s.stats }

// URLs returns all cached URLs, sorted (diagnostics and tests).
func (s *Store) URLs() []string {
	out := make([]string, 0, len(s.items))
	for _, it := range s.items {
		out = append(out, it.entry.URL)
	}
	sort.Strings(out)
	return out
}

// CountWhere counts entries whose URL satisfies pred.
func (s *Store) CountWhere(pred func(*Entry) bool) int {
	n := 0
	for _, it := range s.items {
		if pred(it.entry) {
			n++
		}
	}
	return n
}

// CookieJar stores cookies per domain. Cookie state matters because Table
// III shows parasite removal is tied to cookie clearing.
type CookieJar struct {
	cookies map[string]map[string]string
}

// NewCookieJar returns an empty jar.
func NewCookieJar() *CookieJar {
	return &CookieJar{cookies: make(map[string]map[string]string)}
}

// Set stores a cookie.
func (j *CookieJar) Set(domain, name, value string) {
	m, ok := j.cookies[domain]
	if !ok {
		m = make(map[string]string)
		j.cookies[domain] = m
	}
	m[name] = value
}

// Get reads a cookie value.
func (j *CookieJar) Get(domain, name string) (string, bool) {
	m, ok := j.cookies[domain]
	if !ok {
		return "", false
	}
	v, ok := m[name]
	return v, ok
}

// All returns a "name=value; ..." header string for domain, with names
// sorted for determinism.
func (j *CookieJar) All(domain string) string {
	m := j.cookies[domain]
	if len(m) == 0 {
		return ""
	}
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		parts = append(parts, n+"="+m[n])
	}
	return strings.Join(parts, "; ")
}

// Clear removes every cookie (the "clear cookies" action of Table III).
func (j *CookieJar) Clear() {
	j.cookies = make(map[string]map[string]string)
}

// Len counts stored cookies across all domains.
func (j *CookieJar) Len() int {
	n := 0
	for _, m := range j.cookies {
		n += len(m)
	}
	return n
}

// CacheAPIStore models the Service-Worker Cache API storage surveyed in
// Table III: objects stored there survive hard reloads (Ctrl+F5) and
// "clear cache", and are removed only together with the site's cookies
// and site data. The parasite abuses it as its persistence anchor.
type CacheAPIStore struct {
	responses map[string]*httpsim.Response // keyed by URL
}

// NewCacheAPIStore returns an empty Cache API store.
func NewCacheAPIStore() *CacheAPIStore {
	return &CacheAPIStore{responses: make(map[string]*httpsim.Response)}
}

// Put stores resp under url. The Cache API ignores HTTP's storage rule
// and freshness: whatever its Cache-Control says, a response lives until
// it is explicitly deleted.
func (s *CacheAPIStore) Put(url string, resp *httpsim.Response) {
	s.responses[url] = resp
}

// Get returns the response stored under url.
func (s *CacheAPIStore) Get(url string) (*httpsim.Response, bool) {
	resp, ok := s.responses[url]
	return resp, ok
}

// Len counts stored responses.
func (s *CacheAPIStore) Len() int { return len(s.responses) }

// Clear wipes the store. The browser invokes this only on "clear cookies
// and site data", never on cache clearing (Table III).
func (s *CacheAPIStore) Clear() {
	s.responses = make(map[string]*httpsim.Response)
}
