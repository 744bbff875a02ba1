package httpcache

import (
	"testing"
	"time"
)

// FuzzParseCacheControl holds the Cache-Control parser to its bounds on
// arbitrary header values: it never panics, MaxAge lies in [0, 2³¹ s]
// (RFC 9111 §1.2.2's delta-seconds ceiling), and MaxAge is zero unless
// HasMaxAge is set. The seed corpus in
// testdata/fuzz/FuzzParseCacheControl holds MaxFreshness, three
// overflowing lifetimes (a 10-digit max-age, an 11-digit s-maxage and a
// 20-digit max-age), an upper-case directive after no-store, s-maxage
// before max-age, and the empty value.
func FuzzParseCacheControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		cc := ParseCacheControl(v)
		if cc.MaxAge < 0 || cc.MaxAge > maxDeltaSeconds*time.Second {
			t.Fatalf("ParseCacheControl(%q).MaxAge = %v, outside [0, 2³¹ s]", v, cc.MaxAge)
		}
		if cc.MaxAge != 0 && !cc.HasMaxAge {
			t.Fatalf("ParseCacheControl(%q).MaxAge = %v without HasMaxAge", v, cc.MaxAge)
		}
	})
}
