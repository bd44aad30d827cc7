// The benchmark is its own module so that the repository's Tier-1
// `go build ./... && go test ./...` neither builds nor runs it. The module
// path sits under the main module's, which is what lets it import
// repro/internal/...; the replace points at the checkout it lives in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
