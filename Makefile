# Pinned lint-tool versions — keep in sync with .github/workflows/ci.yml.
# These are installed on demand (network required); spash-vet itself
# builds offline from the standard library alone.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

GOBIN := $(shell go env GOPATH)/bin

.PHONY: all build test fmt-check cross-build loc race lint vet vet-sarif staticcheck govulncheck fuzz-smoke serve-smoke alloc-gate count-gate count-gate-update pairs bench bench-tiny clean

all: build test

build:
	go build ./...

test:
	go test ./...

# fmt-check fails (listing the files) when anything is not gofmt-clean;
# CI's build-test job runs the same check.
fmt-check:
	@out="$$(gofmt -l .)"; test -z "$$out" || { echo "not gofmt-clean:"; echo "$$out"; exit 1; }

# cross-build compiles the tree for an architecture with its own
# internal/hostpf stub (arm64, vetted against its Go declaration), for
# one that gets the empty fallback, and for two systems that keep pool
# words in a Go slice (internal/pmem/storage_other.go); CI's build-test
# job runs it.
cross-build:
	GOARCH=arm64 go build ./...
	GOARCH=arm64 go vet ./internal/hostpf
	GOARCH=riscv64 go build ./...
	GOOS=windows go build ./...
	GOOS=darwin go build ./...

# loc prints the size numbers ROADMAP item 5 tracks per PR: non-test Go
# lines in the root module (bench/ and testdata excluded), in
# internal/core, internal/pmem, internal/repl, internal/crashtest and
# cmd/, and the exported functions and methods of package spash. CI's
# build-test job writes them to its job summary.
loc:
	@echo "non-test Go lines: $$(git ls-files '*.go' | grep -v '_test.go$$' | grep -v '^bench/' | grep -v testdata | xargs cat | wc -l)"
	@echo "non-test Go lines, internal/core: $$(git ls-files 'internal/core/*.go' | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "non-test Go lines, internal/pmem: $$(git ls-files 'internal/pmem/*.go' | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "non-test Go lines, internal/repl: $$(git ls-files 'internal/repl/*.go' | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "non-test Go lines, internal/crashtest: $$(git ls-files 'internal/crashtest/*.go' | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "non-test Go lines, cmd/: $$(git ls-files 'cmd/*.go' | grep -v '_test.go$$' | xargs cat | wc -l)"
	@echo "package spash exported funcs+methods: $$(go doc -all . | grep -c '^func ')"

race:
	go test -race ./internal/core ./internal/pmem ./internal/htm ./internal/obs \
		./internal/harness ./internal/shard ./internal/alloc ./internal/repl \
		./internal/resp ./internal/server
	go test -race . -run 'Sharded|Shard|Close'
	go test -race ./internal/crashtest -short
	go test -race ./internal/core -run 'Concurrent|Linearizab|LockModes|Merge|Shrink' -count=3
	go test -race ./internal/htm -run 'Commit|Publish|Read|LoadLine' -count=3

# lint runs the invariant suite plus the external linters when they are
# installed. The external tools are skipped (with a note) when absent so
# the target works on an offline machine; CI always installs them.
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		$(MAKE) --no-print-directory staticcheck; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION))"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		$(MAKE) --no-print-directory govulncheck; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION))"; \
	fi

# vet runs go vet, then the spash-vet invariant suite over the module.
vet:
	go vet ./...
	go run ./cmd/spash-vet ./...

# vet-sarif emits the findings as SARIF 2.1.0 — the format the CI
# code-scanning job uploads. The file is written even when findings
# fail the run, so it can be inspected.
vet-sarif:
	go run ./cmd/spash-vet -sarif ./... > spash-vet.sarif; \
		rc=$$?; echo "wrote spash-vet.sarif"; exit $$rc

staticcheck:
	staticcheck -checks=SA ./...

govulncheck:
	govulncheck ./...

fuzz-smoke:
	go test ./internal/core -run '^$$' -fuzz=FuzzInsertSearchDelete -fuzztime=30s
	go test ./internal/core -run '^$$' -fuzz=FuzzSlotCodec -fuzztime=30s
	go test ./internal/core -run '^$$' -fuzz=FuzzMergeDecline -fuzztime=30s
	go test ./internal/core -run '^$$' -fuzz=FuzzExecBatch -fuzztime=30s
	go test ./internal/core -run '^$$' -fuzz=FuzzRecordStagePeek -fuzztime=30s
	go test ./internal/core -run '^$$' -fuzz=FuzzProbePrefetchPeek -fuzztime=30s
	go test ./internal/resp -run '^$$' -fuzz=FuzzReadCommand -fuzztime=30s
	go test ./internal/resp -run '^$$' -fuzz=FuzzReadReply -fuzztime=30s

# serve-smoke starts spash-serve on loopback, holds a RESP conversation
# with it and drains it with SIGINT, mirroring CI's job. Serve numbers
# come from the repository benchmark's wire workloads (make bench), not
# from here.
serve-smoke:
	mkdir -p bin
	go build -o bin/spash-serve ./cmd/spash-serve
	go build -o bin/spash-cli ./cmd/spash-cli
	bin/spash-serve -addr 127.0.0.1:6399 -shards 2 & \
		pid=$$!; sleep 1; \
		printf 'put smoke v1\nget smoke\nquit\n' | bin/spash-cli -connect 127.0.0.1:6399; \
		kill -INT $$pid; wait $$pid

# alloc-gate fails when Search, UpdateHot, Insert or Delete allocates, or
# when a Get of an out-of-line key and value does, alone (GetCold) or in
# a batch (ExecBatchCold): allocation counts are deterministic, so unlike
# a wall-clock number they can be gated exactly (20 000 inserts cross ~11
# doublings, whose directories round to 0 allocs/op). CI's bench-smoke
# job runs it.
alloc-gate:
	go test -run '^$$' -bench 'Benchmark(Search|UpdateHot|Insert|Delete|GetCold|ExecBatchCold)$$' -benchtime 20000x -benchmem . | \
		awk '{ print } /^Benchmark/ { n++; if ($$(NF-1) > 0) bad = bad " " $$1 } \
			END { if (n != 6) { print "alloc-gate: " n " of 6 benchmarks ran"; exit 1 } \
			      if (bad != "") { print "alloc-gate: allocs/op > 0:" bad; exit 1 } }'

# count-gate is the counted gate (ROADMAP item 1): each workload of the
# repository benchmark runs for one second at full scale and its
# deterministic counts are compared with testdata/bench_counts.golden —
# exactly on get_uniform, wire_pipe64 and wire_rtt, within 1 % on
# mix_zipf (two real-time-interleaved writers), failed == 0 everywhere.
# A PR that means to move a count runs count-gate-update and says why in
# CHANGES.md. CI's bench-module job runs the gate.
count-gate:
	python3 scripts/count-gate.py

count-gate-update:
	python3 scripts/count-gate.py -update

# pairs is the wall-clock evidence of the standing pair rule (ROADMAP):
# AGAINST's committed files and this checkout, built with bench/run.sh and
# run in alternating pairs, e.g.
#   make pairs AGAINST=HEAD~1 WORKLOAD=wire_pipe64 PAIRS=10 SEED=1
# (WORKLOAD=all runs the four workloads in turn)
PAIRS ?= 10
SEED ?= 1
pairs:
	python3 scripts/bench-pairs.py -against $(AGAINST) -workload $(WORKLOAD) -pairs $(PAIRS) -seed $(SEED)

# bench runs the repository benchmark (BENCHMARK.json): all four
# workloads, ~23 s each, result JSON on the last line of each run.
# bench-tiny checks the bench module and runs the seconds-long smoke.
bench:
	bash bench/run.sh

bench-tiny:
	cd bench && go vet ./... && go test ./...
	bash bench/run.sh -scale tiny

clean:
	rm -rf bin .bench_build
