//go:build !race

package bench

const raceLane = false
