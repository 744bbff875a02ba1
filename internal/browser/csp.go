package browser

import (
	"strings"
	"unicode/utf8"
)

// CSPHeader names, including the deprecated variants counted in Fig. 5.
const (
	CSPHeader           = "Content-Security-Policy"
	CSPHeaderDeprecated = "X-Content-Security-Policy"
	CSPHeaderWebkit     = "X-Webkit-Csp"
)

// CSP is a parsed Content-Security-Policy.
type CSP struct {
	// Present reports whether any CSP header was supplied.
	Present bool
	// Deprecated reports the header arrived under a legacy name.
	Deprecated bool
	// Directives maps directive name to its source list.
	Directives map[string][]string
}

// ParseCSP parses a policy value ("" yields an absent policy) as CSP
// Level 3's "parse a serialized CSP" does: a directive that is not
// ASCII is skipped, a directive name is matched ASCII
// case-insensitively, and a repeated directive keeps its first
// occurrence.
func ParseCSP(value string) CSP {
	if strings.TrimFunc(value, isASCIISpace) == "" {
		return CSP{}
	}
	c := CSP{Present: true, Directives: make(map[string][]string)}
	for rest := value; rest != ""; {
		var token string
		token, rest, _ = strings.Cut(rest, ";")
		if !isASCII(token) {
			continue
		}
		fields := strings.FieldsFunc(token, isASCIISpace)
		if len(fields) == 0 {
			continue
		}
		name := strings.ToLower(fields[0])
		if _, repeated := c.Directives[name]; !repeated {
			c.Directives[name] = fields[1:]
		}
	}
	return c
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// isASCIISpace reports ASCII whitespace as CSP defines it: tab, line
// feed, form feed, carriage return and space.
func isASCIISpace(r rune) bool {
	return r == ' ' || r == '\t' || r == '\n' || r == '\f' || r == '\r'
}

// CSPFromHeaders extracts the effective policy from response headers,
// honouring the deprecated names (Fig. 5's version pie chart).
func CSPFromHeaders(get func(string) string) CSP {
	if v := get(CSPHeader); v != "" {
		return ParseCSP(v)
	}
	for _, h := range []string{CSPHeaderDeprecated, CSPHeaderWebkit} {
		if v := get(h); v != "" {
			c := ParseCSP(v)
			c.Deprecated = true
			return c
		}
	}
	return CSP{}
}

// sourcesFor resolves a directive with default-src fallback.
func (c CSP) sourcesFor(directive string) ([]string, bool) {
	if !c.Present {
		return nil, false
	}
	if s, ok := c.Directives[directive]; ok {
		return s, true
	}
	if s, ok := c.Directives["default-src"]; ok {
		return s, true
	}
	return nil, false
}

// Allows reports whether loading from origin is permitted for the
// directive (e.g. "img-src", "frame-src", "connect-src", "script-src") on
// a page served from pageOrigin. An absent policy allows everything —
// which the §VIII measurement shows is the common case (CSP on only
// ~4.33% of pages). Keywords and hosts match ASCII case-insensitively.
func (c CSP) Allows(directive, origin, pageOrigin string) bool {
	sources, ok := c.sourcesFor(directive)
	if !ok {
		return true
	}
	for _, s := range sources {
		switch s = strings.ToLower(s); s {
		case "'none'":
			// No effect beside other sources; alone, like an empty
			// list, it leaves nothing to match.
		case "*":
			// The wildcard misconfiguration called out in §VIII:
			// "'connect-src *;' ... simply allows every connect-src".
			return true
		case "'self'":
			if origin == pageOrigin {
				return true
			}
		default:
			if matchCSPHost(s, origin) {
				return true
			}
		}
	}
	return false
}

// Wildcard reports whether the directive is configured with a bare "*"
// (the misconfiguration statistic of Fig. 5).
func (c CSP) Wildcard(directive string) bool {
	sources, ok := c.Directives[directive]
	if !ok {
		return false
	}
	for _, s := range sources {
		if s == "*" {
			return true
		}
	}
	return false
}

// HasDirective reports whether the directive is explicitly configured.
func (c CSP) HasDirective(directive string) bool {
	_, ok := c.Directives[directive]
	return ok
}

// matchCSPHost matches a lower-case host source against origin.
func matchCSPHost(pattern, origin string) bool {
	pattern = strings.TrimPrefix(strings.TrimPrefix(pattern, "https://"), "http://")
	origin = strings.TrimPrefix(strings.TrimPrefix(strings.ToLower(origin), "https://"), "http://")
	if strings.HasPrefix(pattern, "*.") {
		return strings.HasSuffix(origin, pattern[1:]) // ".example.com"
	}
	return pattern == origin
}
