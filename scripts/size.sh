#!/usr/bin/env bash
# size.sh — print the three "least machinery" numbers ROADMAP aim 2 tracks
# for the main module (tools/ and bench/ excluded): non-test Go LoC, the
# nyquistd flag count, and the //nyquist:allow-* annotation count.
# Print-only: compare against the previous PR's figures in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

gofiles() {
	find "${1:-.}" -name '*.go' ! -name '*_test.go' \
		! -path './tools/*' ! -path './bench/*' ! -path './.bench_build/*'
}

echo "non-test Go LoC (main module): $(gofiles | xargs cat | wc -l)"
echo "non-test Go LoC (internal/tsdb): $(gofiles ./internal/tsdb | xargs cat | wc -l)"
echo "nyquistd flags: $(grep -cE 'flag\.[A-Z][A-Za-z0-9]*\("' cmd/nyquistd/main.go)"
echo "//nyquist:allow-* annotations: $(gofiles | xargs grep -h '//nyquist:allow-' | wc -l)"
