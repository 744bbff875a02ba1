package httpcache

import (
	"testing"
	"time"
)

// FuzzParseCacheControl holds the Cache-Control parser to its bounds on
// arbitrary header values: it never panics, MaxAge and SMaxAge lie in
// [0, 2³¹ s] (RFC 9111 §1.2.2's delta-seconds ceiling), and each is
// zero unless its Has flag is set. The seed corpus in
// testdata/fuzz/FuzzParseCacheControl holds MaxFreshness, three
// overflowing lifetimes (a 10-digit max-age, an 11-digit s-maxage and a
// 20-digit max-age), an upper-case directive after no-store, s-maxage
// before max-age, and the empty value.
func FuzzParseCacheControl(f *testing.F) {
	f.Fuzz(func(t *testing.T, v string) {
		cc := ParseCacheControl(v)
		for _, d := range []struct {
			name string
			age  time.Duration
			has  bool
		}{
			{"MaxAge", cc.MaxAge, cc.HasMaxAge},
			{"SMaxAge", cc.SMaxAge, cc.HasSMaxAge},
		} {
			if d.age < 0 || d.age > maxDeltaSeconds*time.Second {
				t.Fatalf("ParseCacheControl(%q).%s = %v, outside [0, 2³¹ s]", v, d.name, d.age)
			}
			if d.age != 0 && !d.has {
				t.Fatalf("ParseCacheControl(%q).%s = %v without its Has flag", v, d.name, d.age)
			}
		}
	})
}
