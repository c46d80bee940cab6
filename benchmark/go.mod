// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it. The import
// path prefix dss/ keeps dss/internal/... importable from here.
module dss/benchmark

go 1.24

require dss v0.0.0

replace dss => ../
