// feedback reproduces the paper's Figure 8 scenario: db starts with a
// good co-allocation policy (String adjacent to its char[]); mid-run
// the GC is "manually instructed" to insert one cache line of padding
// between the pair — a deliberately poor placement. The monitoring
// loop observes that gapped pairs attract more misses per object than
// adjacent ones (or that the field's miss rate regresses) and reverts
// the decision; the miss rate returns to its old value.
//
//	go run ./examples/feedback
package main

import (
	"fmt"
	"log"
	"strings"

	"hpmvm/internal/bench"
	_ "hpmvm/internal/bench/workloads"
)

func main() {
	builder, ok := bench.Get("db")
	if !ok {
		log.Fatal("db workload not registered")
	}
	fmt.Println("running db with co-allocation; forcing a 128-byte gap at cycle 120M...")
	_, sys, err := bench.Run(builder, bench.RunConfig{
		Coalloc:    true,
		GapAtCycle: 120_000_000,
		Interval:   2500,
		Seed:       1,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\npolicy decision log:")
	for _, e := range sys.Policy.Log() {
		fmt.Printf("  %s\n", e)
	}

	// Render the String::value miss-rate series as a terminal plot.
	for _, fc := range sys.Monitor.HotFields() {
		if fc.Field.QualifiedName() != "String::value" {
			continue
		}
		fmt.Println("\nString::value miss rate over time (misses/Mcycle):")
		max := 1.0
		for _, s := range fc.RateSeries.Samples {
			if s.Value > max {
				max = s.Value
			}
		}
		for _, s := range fc.RateSeries.Samples {
			bar := int(40 * s.Value / max)
			fmt.Printf("  %12d | %-40s %6.0f\n", s.Time, strings.Repeat("#", bar), s.Value)
		}
	}
	fmt.Println("\nThe spike after the manual intervention and the recovery after the")
	fmt.Println("revert are the paper's Figure 8 shape: the runtime can tell that an")
	fmt.Println("optimization decision hurt, and undo it online.")
}
