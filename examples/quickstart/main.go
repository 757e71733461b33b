// Quickstart: build a small program against the VM's public API, run
// it on the simulated P4 with hardware performance monitoring enabled,
// and print what the monitor learned — which reference field causes
// the cache misses.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"hpmvm/internal/bench"
	"hpmvm/internal/core"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
)

func main() {
	// 1. Define classes: an Item holds a reference to a payload array.
	u := classfile.NewUniverse()
	item := u.DefineClass("Item", nil)
	fPayload := u.AddField(item, "payload", classfile.KindRef)

	// 2. Write the program: allocate 8k items, then sweep their
	// payloads repeatedly — a pointer-chasing loop whose misses land
	// on the access path Item::payload -> int[].
	mainCl := u.DefineClass("Main", nil)
	entry := u.AddMethod(mainCl, "main", false, nil, classfile.KindVoid)
	b := bytecode.NewBuilder(u, entry)
	b.Local("items", classfile.KindRef)
	b.Local("it", classfile.KindRef)
	b.Local("i", classfile.KindInt)
	b.Local("round", classfile.KindInt)
	b.Local("sum", classfile.KindInt)
	b.Const(8000).NewArray(u.RefArray).Store("items")
	b.Label("mk")
	b.Load("i").Const(8000).If(bytecode.OpIfGE, "sweep")
	b.New(item).Store("it")
	b.Load("it").Const(32).NewArray(u.IntArray).PutField(fPayload)
	b.Load("items").Load("i").Load("it").AStore(classfile.KindRef)
	b.Inc("i", 1)
	b.Goto("mk")
	b.Label("sweep")
	b.Load("round").Const(60).If(bytecode.OpIfGE, "done")
	b.Const(0).Store("i")
	b.Label("walk")
	b.Load("i").Const(8000).If(bytecode.OpIfGE, "next")
	b.Load("sum").
		Load("items").Load("i").ALoad(classfile.KindRef).GetField(fPayload).Const(0).ALoad(classfile.KindInt).
		Add().Store("sum")
	b.Inc("i", 5)
	b.Goto("walk")
	b.Label("next")
	b.Inc("round", 1)
	b.Goto("sweep")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	// 3. Wire the full platform: P4-like hierarchy, GenMS collector,
	// PEBS sampling of L1 misses at a 5000-event interval.
	sys, err := core.NewSystemOpts(u, core.Options{
		HeapLimit:        16 << 20,
		Monitoring:       true,
		SamplingInterval: 5000,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := sys.Boot(bench.AllOptPlan(u, 2), nil); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(entry, 0); err != nil {
		log.Fatal(err)
	}

	// 4. Report.
	st := sys.Hier().Stats()
	fmt.Printf("program result : %v\n", sys.VM.Results())
	fmt.Printf("cycles         : %d (%d instructions, CPI %.2f)\n",
		sys.VM.Cycles(), sys.VM.CPU.Instret(),
		float64(sys.VM.Cycles())/float64(sys.VM.CPU.Instret()))
	fmt.Printf("L1 / L2 misses : %d / %d\n", st.L1Misses, st.L2Misses)
	minor, major := sys.GCStats()
	fmt.Printf("collections    : %d minor, %d major\n", minor, major)
	fmt.Println()
	fmt.Print(sys.Monitor.Report(5))
	fmt.Println("\nThe monitor has traced the raw PEBS samples back through the")
	fmt.Println("machine-code maps to the IR access path, charging the misses to")
	fmt.Println("Item::payload — exactly the feedback the co-allocating GC consumes.")
}
