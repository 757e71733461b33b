//go:build census

package cpu

// census turns on the fast-loop exit census (census.go): build with
// `-tags census`, as `make census` does.
const census = true
