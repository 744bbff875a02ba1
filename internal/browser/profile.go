// Package browser implements the victim-side browser engine: page loading
// over the simulated network, the HTTP cache / Cache API / cookie stores,
// script execution via the script runtime, Same-Origin-Policy and CSP
// enforcement, and the refresh actions surveyed in Table III.
//
// Six behavioural profiles model the browsers evaluated in the paper
// (Tables I and II). Profiles encode *behaviour* (cache size, replacement
// policy, Cache API support, IE's memory ballooning); the experiment code
// then observes outcomes rather than hard-coding the published table.
package browser

import (
	"fmt"
	"slices"

	"masterparasite/internal/httpcache"
)

// OS is a client operating system from Table II.
type OS string

// Operating systems of the Table II evaluation.
const (
	Win10   OS = "Win10"
	MacOS   OS = "MacOS"
	Linux   OS = "Linux"
	Android OS = "Android"
	IOS     OS = "iOS"
)

// AllOSes lists the Table II rows in order.
func AllOSes() []OS { return []OS{Win10, MacOS, Linux, Android, IOS} }

// Profile is the behavioural description of one browser build.
type Profile struct {
	// Name and Version identify the row of Table I / column of Table II.
	Name    string
	Version string
	// Incognito marks the private-browsing variant (Chrome*).
	Incognito bool
	// CacheSize is the default disk/memory cache budget in bytes
	// (Table I column "Size").
	CacheSize int64
	// SizeNote is the human-readable size with the paper's footnotes.
	SizeNote string
	// Policy is the cache replacement policy.
	Policy httpcache.Policy
	// Ballooning disables eviction and lets memory grow unboundedly —
	// Internet Explorer's pathology ("DOS on memory", Table I).
	Ballooning bool
	// MemoryLimit is the point at which the OS kills a ballooning
	// browser's processes.
	MemoryLimit int64
	// InterDomainShared reports whether one shared budget covers all
	// domains, so a flood from attacker.com evicts a.com's objects
	// (Table I column "I.D.").
	InterDomainShared bool
	// SupportsCacheAPI gates the Table III persistence anchor (IE: n/a).
	SupportsCacheAPI bool
	// SlowEviction notes a responsiveness penalty while evicting
	// (Firefox: "performance impact").
	SlowEviction bool
	// Remark reproduces the Table I remark column.
	Remark string
	// OSes is the Table II availability row: which OSes this browser
	// ships on.
	OSes map[OS]bool
	// PartitionedCache keys cache entries by top-level site (§VIII
	// countermeasure; off in all 2020-era defaults).
	PartitionedCache bool
}

// UserAgent renders a stable UA string for the profile.
func (p Profile) UserAgent() string {
	if p.Incognito {
		return fmt.Sprintf("%s/%s (incognito)", p.Name, p.Version)
	}
	return fmt.Sprintf("%s/%s", p.Name, p.Version)
}

// RunsOn reports Table II availability.
func (p Profile) RunsOn(os OS) bool { return p.OSes[os] }

const (
	mib = 1 << 20
	mb  = 1000 * 1000
)

// profiles is the browser population of the evaluation, in the order of
// Table I with Safari appended (Safari appears only in Table II). It is
// built once and never written: Profiles hands out copies of it, which
// share its OSes maps, and those are only read (RunsOn).
var profiles = []Profile{
	{
		Name: "Chrome", Version: "81.0.4044.122",
		CacheSize: 320 * mib, SizeNote: "320MiB†",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		Remark:            "†from Chromium",
		OSes:              map[OS]bool{Win10: true, MacOS: true, Linux: true, Android: true, IOS: true},
	},
	{
		Name: "Chrome", Version: "81.0.4044.122", Incognito: true,
		CacheSize: 320 * mib, SizeNote: "—",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		Remark:            "*incognito mode",
		OSes:              map[OS]bool{Win10: true, MacOS: true, Linux: true, Android: true, IOS: true},
	},
	{
		Name: "Edge", Version: "84.0.522.59",
		CacheSize: 320 * mib, SizeNote: "320MiB†",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		Remark:            "†from Chromium",
		OSes:              map[OS]bool{Win10: true},
	},
	{
		Name: "IE", Version: "11.1365.17134.0",
		CacheSize: 330 * mb, SizeNote: "330MB",
		Policy:            httpcache.FIFO,
		Ballooning:        true,
		MemoryLimit:       512 * mb,
		InterDomainShared: false,
		SupportsCacheAPI:  false,
		Remark:            "DOS on memory",
		OSes:              map[OS]bool{Win10: true},
	},
	{
		Name: "Firefox", Version: "75.0",
		CacheSize: 256 * mb, SizeNote: "256MB",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		SlowEviction:      true,
		Remark:            "performance impact",
		OSes:              map[OS]bool{Win10: true, MacOS: true, Linux: true, Android: true, IOS: true},
	},
	{
		Name: "Opera", Version: "68.0.3618.56",
		CacheSize: 320 * mib, SizeNote: "320MiB†",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		Remark:            "†from Chromium",
		OSes:              map[OS]bool{Win10: true, MacOS: true, Linux: true, Android: true, IOS: true},
	},
	{
		Name: "Safari", Version: "13.1",
		CacheSize: 256 * mb, SizeNote: "n/a",
		Policy:            httpcache.LRU,
		InterDomainShared: true,
		SupportsCacheAPI:  true,
		OSes:              map[OS]bool{Win10: true, MacOS: true, IOS: true},
	},
}

// Profiles returns the browser population of the evaluation, in the order
// of Table I with Safari appended (Safari appears only in Table II).
func Profiles() []Profile { return slices.Clone(profiles) }

// ProfileByName finds a profile ("Chrome", "Chrome*" for incognito, "IE",
// "Edge", "Firefox", "Opera", "Safari").
func ProfileByName(name string) (Profile, error) {
	incognito := false
	if len(name) > 0 && name[len(name)-1] == '*' {
		incognito = true
		name = name[:len(name)-1]
	}
	for _, p := range profiles {
		if p.Name == name && p.Incognito == incognito {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("browser: unknown profile %q", name)
}

// TableIProfiles returns the profiles evaluated in Table I (no Safari).
func TableIProfiles() []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.Name == "Safari" {
			continue
		}
		out = append(out, p)
	}
	return out
}

// TableIIBrowsers returns the browser columns of Table II (no incognito
// variant; the injection result does not depend on the private mode).
func TableIIBrowsers() []Profile {
	var out []Profile
	for _, p := range profiles {
		if p.Incognito {
			continue
		}
		out = append(out, p)
	}
	return out
}
