GO ?= go

.PHONY: build vet fmt-check doclint test test-short race allocs fuzz-smoke bench bench-smoke bench-check soak-smoke fleet-smoke artifacts labd labd-smoke chaos-smoke ci

## build: compile every package and command
build:
	$(GO) build ./...

## vet: static analysis
vet:
	$(GO) vet ./...

## fmt-check: fail if any file needs gofmt
fmt-check:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

## doclint: fail if any package lacks a package doc comment
doclint:
	$(GO) run ./cmd/doclint

## test: the tier-1 verify — full suite at full statistical strictness
test:
	$(GO) test ./...

## test-short: the fast suite (-short shrinks the crawl corpora)
test-short:
	$(GO) test -short ./...

## race: full suite under the race detector
race:
	$(GO) test -race ./...

## allocs: the allocation-budget tests (Test*Allocs) — they skip under
## -short because the race detector perturbs allocation counts, so the
## race run in `make ci` never holds them; this runs them without -short
## or -race
allocs:
	$(GO) test -count=1 -run 'Allocs$$' ./...

## fuzz-smoke: each native fuzz target for a short time box — the HTML
## tokenizer (ScanTags held to ParseHTML), the C&C master's Route on
## arbitrary request paths (no panic, a known status, served images
## that parse back), httpsim's request and response parsers (held
## to the map-and-split parsers they replaced, and to their own
## Marshal), and the replay log reader (allocation bounded by the
## input, and every accepted log re-recorded byte for byte); -fuzz
## takes one target per run
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzScanTags$$' -fuzztime 5s ./internal/dom
	$(GO) test -run '^$$' -fuzz '^FuzzMasterRoute$$' -fuzztime 5s ./internal/cnc
	$(GO) test -run '^$$' -fuzz '^FuzzParseRequest$$' -fuzztime 5s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz '^FuzzParseResponse$$' -fuzztime 5s ./internal/httpsim
	$(GO) test -run '^$$' -fuzz '^FuzzReadLog$$' -fuzztime 5s ./internal/replay

## bench: the root benchmark harness (tables, figures, ablations, codecs)
bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

## bench-smoke: every benchmark exactly once, as a does-it-run gate
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' .

## bench-check: vet and short-test the bench/ module — root `go vet
## ./...` and `go test ./...` skip the nested module, so an API change
## here could otherwise break the benchmark build silently
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test -short ./...

## soak-smoke: the short soak gate — a few thousand retransmitting
## echo rounds over a lossy, duplicating link, with the frame-pool
## acquire/release counters required to balance (the full ≥10⁶-event
## soak with ISN wraparound runs in `make test` via TestSoakLongHorizon)
soak-smoke:
	$(GO) test -short -run 'TestSoak' ./internal/experiments

## artifacts: regenerate every artifact (short sizes) as JSON plus the
## run manifest into dist/, and record the scripted kill chain as a
## replay log with its divergence fingerprint — what CI uploads as the
## build artifact
artifacts:
	$(GO) run ./cmd/experiments -run all -sites 400 -days 20 -payload 8192 -format json -out dist
	$(GO) run ./cmd/experiments -record dist/killchain.replay -seed 97

## labd: run the attack-lab orchestrator daemon on loopback (see
## cmd/labd and the Serving section in README.md)
labd:
	$(GO) run ./cmd/labd -listen 127.0.0.1:8970 -store labd-data

## labd-smoke: the serving gate — start a labd daemon on an ephemeral
## loopback port, enqueue one artifact over real net/http, poll it to
## completion, and assert the served SHA-256 fingerprint equals the
## batch CLI's manifest entry for the same spec, params, and format
labd-smoke:
	$(GO) run ./cmd/labd -smoke

## fleet-smoke: the sharded-netsim gate — render both fleet/* artifacts
## at 1, 4, and 8 shard workers and require byte-identical output and
## matching manifest SHA-256 fingerprints (the 10⁵- and 10⁶-bot tiers
## run in `make test` via TestFleetHundredKBotsByteIdentical and
## TestFleetMillionBots)
fleet-smoke:
	$(GO) test -run 'TestFleetSmoke' ./internal/experiments

## chaos-smoke: the kill-point recovery gate — crash the labd "process"
## at every declared fault site along enqueue → run → render →
## persist (first crossing, workers 1/4/8), restart over the surviving
## disk state, and verify the recovery invariants: no acknowledged run
## lost, no sequence reissued, every run ends done with the exact
## batch-CLI fingerprint or failed "interrupted by restart" (the full
## hit sweep runs in `make test`)
chaos-smoke:
	$(GO) test -short -run 'TestKillPointRecoveryMatrix' ./internal/labd

## ci: what .github/workflows/ci.yml runs — gofmt + vet + doclint, build,
## race tests on the short corpora (the full-size crawl would dominate the
## race run), the allocation budgets, the fuzz smoke pass, a
## single-iteration benchmark smoke pass, the bench/ module build and short tests, the short soak gate,
## the sharded-fleet determinism gate, the serving smoke gate, the
## kill-point recovery gate, and the artifact regeneration
ci: fmt-check vet doclint build
	$(GO) test -short -race ./...
	$(MAKE) allocs
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-check
	$(MAKE) soak-smoke
	$(MAKE) fleet-smoke
	$(MAKE) labd-smoke
	$(MAKE) chaos-smoke
	$(MAKE) artifacts
