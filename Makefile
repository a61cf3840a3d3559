# Pre-merge gate for the repository (referenced from README "Install / build").
# `make ci` is what a PR must keep green: static checks, a full build, the
# whole test suite, the race detector over the threaded BLAS engine and the
# lookahead-pipelined factorizations, and a one-iteration bench smoke run so
# the benchmark harness itself cannot rot.

GO ?= go

.PHONY: ci vet benchvet lint-globals build test race bench benchsmoke fuzzsmoke fuzz

ci: vet benchvet lint-globals build test race fuzzsmoke benchsmoke

vet:
	$(GO) vet ./...
	$(GO) vet ./internal/lapack/...

# perfbench is a module of its own (it builds this one through a replace
# directive), so `go build ./...` never compiles it; vet it here so a
# renamed entry point it calls fails CI rather than the benchmark run.
benchvet:
	GOWORK=off GOFLAGS= $(GO) -C perfbench vet .

# Execution-context hygiene: since the per-call Config refactor, kernels and
# drivers must read every tunable from the *core.Config threaded down from
# the API boundary — never from the process-wide default store mid-call.
# Direct default reads in internal/lapack are therefore confined to
# defaults.go (the documented Set*/getter shims); anywhere else they would
# let a concurrent SetThreads/SetBlockSizes change a call's behavior
# mid-flight.
lint-globals:
	@bad=$$(grep -rn 'blas\.Threads()\|blas\.GemmSmallDim()\|core\.Default()' \
		internal/lapack --include='*.go' \
		| grep -v '_test\.go' | grep -v '^internal/lapack/defaults\.go:'); \
	if [ -n "$$bad" ]; then \
		echo 'lint-globals: default-store reads outside internal/lapack/defaults.go:'; \
		echo "$$bad"; exit 1; \
	fi
	@echo "lint-globals: ok"

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race run covers the threaded engine, the factorizations driving it,
# the la boundary — including the chaos tests that panic workers on purpose,
# so panic containment is itself exercised under the detector — and the
# atomic default-config store (core) plus the per-call execution-context
# tests (la/config_test.go) that churn it while drivers run.
race:
	$(GO) test -race ./internal/core/ ./internal/blas/ ./internal/lapack/ ./la/

# Bounded fuzz gate: a short randomized burst per target on every CI run.
# Failures minimize into la/testdata/fuzz/ and then replay forever under
# plain `go test`, so anything fuzzsmoke shakes out stays fixed.
FUZZTIME ?= 5s
fuzzsmoke:
	$(GO) test ./la/ -fuzz='^FuzzGESV$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGESVX$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGELS$$' -fuzztime=$(FUZZTIME)
	$(GO) test ./la/ -fuzz='^FuzzGELSD$$' -fuzztime=$(FUZZTIME)

# Open-ended fuzzing session for one target: make fuzz TARGET=FuzzGESV
TARGET ?= FuzzGESV
fuzz:
	$(GO) test ./la/ -fuzz='^$(TARGET)$$' -fuzztime=10m

# Compile-and-run check for the benchmarks: one iteration each of the GEMM
# engine and factorization benchmarks, no timing claims.
benchsmoke:
	$(GO) test -run=NONE -bench='Getrf|Gemm' -benchtime=1x .
	$(GO) run ./cmd/la90bench -reduce -maxn 256 -reps 1 -out /tmp/BENCH_reduce_smoke.json
	$(GO) run ./cmd/la90bench -batch -maxbatch 64 -reps 1 -out /tmp/BENCH_batch_smoke.json
	$(GO) run ./cmd/la90bench -mixed -maxn 256 -maxbatch 16 -reps 1 -out /tmp/BENCH_mixed_smoke.json
	$(GO) run ./cmd/la90bench -cond -maxn 256 -reps 1 -out /tmp/BENCH_cond_smoke.json
	$(GO) run ./cmd/la90bench -svd -maxn 256 -reps 1 -out /tmp/BENCH_svd_smoke.json

# Quick performance snapshot (see README "Performance" for the full story).
bench:
	$(GO) test -bench 'Gemm|Getrf|Potrf|Geqrf' -benchtime 5x -run '^$$' .
