// Package httpcache models the client-side HTTP caches the parasite
// infects: the browser's main object cache (keyed by URL name, §VI-A
// "browsers' caches use names of files as keys"), the Cache API storage
// (Table III) and the cookie jar. It implements the relevant subset of
// RFC 7234 freshness semantics plus the capacity-eviction behaviour the
// eviction module (§IV) exploits.
package httpcache

import (
	"errors"
	"strconv"
	"strings"
	"time"
)

// CacheControl is the parsed form of a Cache-Control header value.
// MaxAge is every cache's freshness lifetime; SMaxAge overrides it in a
// shared cache only (RFC 9111 §5.2.2.10), so the browser's private
// cache ignores it.
type CacheControl struct {
	MaxAge     time.Duration
	HasMaxAge  bool
	SMaxAge    time.Duration
	HasSMaxAge bool
	NoStore    bool
	NoCache    bool
	Immutable  bool
	Public     bool
	Private    bool
}

// maxDeltaSeconds is the ceiling RFC 9111 §1.2.2 puts on delta-seconds:
// a larger value, however many digits it has, counts as 2³¹ seconds.
const maxDeltaSeconds = 1 << 31

// ParseCacheControl parses a Cache-Control header value. Unknown
// directives are ignored, as RFC 7234 requires, and of a repeated
// max-age or s-maxage the first occurrence counts (RFC 9111 §4.2.1).
func ParseCacheControl(v string) CacheControl {
	var cc CacheControl
	for v != "" {
		var part string
		part, v, _ = strings.Cut(v, ",")
		d := strings.TrimSpace(strings.ToLower(part))
		switch {
		case d == "no-store":
			cc.NoStore = true
		case d == "no-cache":
			cc.NoCache = true
		case d == "immutable":
			cc.Immutable = true
		case d == "public":
			cc.Public = true
		case d == "private":
			cc.Private = true
		case strings.HasPrefix(d, "max-age="):
			if age, ok := deltaSeconds(strings.TrimPrefix(d, "max-age=")); ok && !cc.HasMaxAge {
				cc.MaxAge, cc.HasMaxAge = age, true
			}
		case strings.HasPrefix(d, "s-maxage="):
			if age, ok := deltaSeconds(strings.TrimPrefix(d, "s-maxage=")); ok && !cc.HasSMaxAge {
				cc.SMaxAge, cc.HasSMaxAge = age, true
			}
		}
	}
	return cc
}

// deltaSeconds parses a delta-seconds value, one or more digits,
// saturating at maxDeltaSeconds: ParseUint takes no sign, and its
// ErrRange is a digit string too long to represent.
func deltaSeconds(v string) (time.Duration, bool) {
	secs, err := strconv.ParseUint(v, 10, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, false
	}
	return time.Duration(min(secs, maxDeltaSeconds)) * time.Second, true
}

// MaxFreshness is the Cache-Control value the attacker sets on infected
// objects: "the cache duration is set by HTTP headers like the
// Cache-Control header ... so that the browser of the victim keeps the
// modified copy of the object as long as possible" (§VI-A). One year is
// the conventional practical maximum.
const MaxFreshness = "public, max-age=31536000, immutable"
