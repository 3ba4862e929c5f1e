# Build/test entry points. `make test` is the tier-1 gate (the root
# module, then the benchmark harness's own module under bench/, which
# the root's ./... does not enter); `make race` must also stay green —
# every concurrent code path in the repository (internal/serve's readers
# and writer, internal/engine's checkpoints streamed off the writer,
# internal/replica) is written to be race-detector-clean, with
# cross-goroutine state accessed only via sync/atomic, mutexes or channels.
GO ?= go

.PHONY: all test race vet doc loc bench pair crash-sweep fuzz profile clean

all: test vet

test:
	$(GO) build ./...
	$(GO) test ./...
	$(GO) vet -C bench ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Documentation gate: go vet, the package-comment check — every
# package (main and test-only packages included) must carry a godoc
# package comment; see internal/doccheck for the policy — and the
# observability map: the serve, disk.*, durability.* and replica.*
# counters docs/ARCHITECTURE.md lists must be exactly the keys /stats
# exports — and gofmt: any file it would change (listed) fails the gate.
doc:
	$(GO) vet ./...
	$(GO) run ./internal/doccheck $$($(GO) list -f '{{.Dir}}' ./...)
	$(GO) test -count=1 -run TestServeSnapshotKeysAreDocumented ./internal/stats
	test -z "$$(gofmt -l . | tee /dev/stderr)"

# Tree size in lines, as ROADMAP counts it: non-test Go outside bench/,
# every _test.go (bench/'s included), and all of bench/'s Go. Hidden
# directories (.git, build scratch) are skipped.
GOFILES = find . -path './.*' -prune -o -name '*.go'
loc:
	@printf 'non-test Go outside bench/: '; $(GOFILES) -not -path './bench/*' -not -name '*_test.go' -print | xargs cat | wc -l
	@printf 'test Go (every _test.go):   '; $(GOFILES) -name '*_test.go' -print | xargs cat | wc -l
	@printf 'bench/ Go:                  '; $(GOFILES) -path './bench/*' -print | xargs cat | wc -l

# One pass over every benchmark, mainly as a does-it-run smoke check.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Parent/change timing pairs: a `go test -c` binary of package PKG at
# revision PARENT (exported with git archive into a temporary directory)
# and one of the working tree, run alternately N times each on the
# benchmarks BENCH matches, then the medians, quartiles and pairs won
# (cmd/benchpair). Each run times every benchmark for BENCHTIME (1s: a
# ~20 ms benchmark is timed over dozens of iterations, not one). Example:
#   make pair PARENT=HEAD~1 PKG=./internal/storage BENCH=ListDecode N=10
PARENT ?= HEAD
N ?= 10
BENCHTIME ?= 1s
pair:
	$(GO) run ./cmd/benchpair -parent '$(PARENT)' -pkg '$(PKG)' -bench '$(BENCH)' -n $(N) -benchtime '$(BENCHTIME)'

# Short exploratory burst on every native fuzz target (the checked-in
# corpora already run under `make test`). Override FUZZTIME for longer
# local hunts.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz=FuzzMaintenanceSequence -fuzztime=$(FUZZTIME) -run '^$$' ./internal/maintain
	$(GO) test -fuzz=FuzzChangeStreamDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/wal
	$(GO) test -fuzz=FuzzDiskEngineAgreesWithMem -fuzztime=$(FUZZTIME) -run '^$$' ./internal/serve
	$(GO) test -fuzz=FuzzSortArcs -fuzztime=$(FUZZTIME) -run '^$$' ./internal/extsort
	$(GO) test -fuzz=FuzzEdgeListDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/storage
	$(GO) test -fuzz=FuzzNodeTableDecode -fuzztime=$(FUZZTIME) -run '^$$' ./internal/storage

# The crash-point fault-injection suite: the exhaustive boundary sweep
# plus a longer randomized torn-write run. CRASHSEED pins a failing seed
# for reproduction.
CRASHSEED ?= 1
crash-sweep:
	$(GO) test -race -count=1 ./internal/engine -run 'TestCrash' -crashseed=$(CRASHSEED) -crashtrials=32

# Interactive CPU profile of a running `kcored -pprof` instance (the
# publish path, k-core scans, coalescing — whatever is hot). Override
# PROFILE_ADDR to point at a non-default listen address and
# PROFILE_SECONDS to change the sample window.
PROFILE_ADDR ?= 127.0.0.1:7171
PROFILE_SECONDS ?= 30
profile:
	$(GO) tool pprof -seconds $(PROFILE_SECONDS) http://$(PROFILE_ADDR)/debug/pprof/profile

clean:
	$(GO) clean ./...
