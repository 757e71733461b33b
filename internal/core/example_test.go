package core_test

import (
	"fmt"
	"log"

	"hpmvm/internal/core"
	"hpmvm/internal/vm/bytecode"
	"hpmvm/internal/vm/classfile"
	"hpmvm/internal/vm/runtime"
)

// ExampleSystem builds a minimal program, runs it on the simulated
// platform with monitoring enabled, and prints its (deterministic)
// result log — the smallest end-to-end use of the library.
func ExampleSystem() {
	u := classfile.NewUniverse()
	cl := u.DefineClass("Main", nil)
	main := u.AddMethod(cl, "main", false, nil, classfile.KindVoid)
	b := bytecode.NewBuilder(u, main)
	b.Local("i", classfile.KindInt)
	b.Local("sum", classfile.KindInt)
	b.Label("loop")
	b.Load("i").Const(10).If(bytecode.OpIfGE, "done")
	b.Load("sum").Load("i").Add().Store("sum")
	b.Inc("i", 1)
	b.Goto("loop")
	b.Label("done")
	b.Load("sum").Result()
	b.Return()
	b.MustBuild()
	u.Layout()

	sys, err := core.NewSystemOpts(u, core.Options{
		HeapLimit:        8 << 20,
		Monitoring:       true,
		SamplingInterval: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	plan := runtime.CompilePlan{}
	for _, m := range u.Methods() {
		if m.Code != nil {
			plan[m.ID] = 2
		}
	}
	if err := sys.Boot(plan, nil); err != nil {
		log.Fatal(err)
	}
	if err := sys.Run(main, 0); err != nil {
		log.Fatal(err)
	}
	fmt.Println(sys.VM.Results())
	// Output: [45]
}
