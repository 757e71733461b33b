//go:build race

package bench

// raceLane skips the db-sized cases: race instrumentation is too slow.
const raceLane = true
