//go:build !census

package cpu

// census gates the fast-loop exit census (census.go). The default
// build leaves it off, and the counting compiles away.
const census = false
