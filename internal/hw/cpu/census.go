package cpu

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// The fast-loop exit census: in a build with `-tags census`, runLoop
// counts the instructions it retires and, by cause, each one it hands
// to Step: a change of fetch line when the fetch hook is on, otherwise
// the instruction's opcode (a load or store there is a lane decline or
// an unmaterialized page). In the default build census is false and
// nothing counts.

// Exit classes: one per opcode, then a fetch-line change, then a PC
// outside the installed code.
const (
	exitFetch = int(numOps) + iota
	exitWild
	numExitClasses
)

// exitCensus is one CPU's census.
type exitCensus struct {
	retired uint64
	exits   [numExitClasses]uint64
}

// tally returns the CPU's census, started on first use.
func (c *CPU) tally() *exitCensus {
	if c.exits == nil {
		c.exits = new(exitCensus)
	}
	return c.exits
}

// countExit records why the instruction at c.PC goes to Step.
func (c *CPU) countExit() {
	class := exitWild
	if c.ifetch != nil && c.PC>>c.ifetchShift != c.lastFetchLine {
		class = exitFetch
	} else if in, ok := c.InstrAt(c.PC); ok && in.Op < numOps {
		class = int(in.Op)
	}
	c.tally().exits[class]++
}

// Census returns the exit census as one line: the instructions the run
// loops retired, the share of them handed to Step, and that share by
// class, largest first, each as a percentage of the retired
// instructions. It returns "" in the default build.
func (c *CPU) Census() string {
	if !census {
		return ""
	}
	k := c.tally()
	pct := func(n uint64) string { return fmt.Sprintf("%.2f %%", 100*float64(n)/float64(max(k.retired, 1))) }
	type class struct {
		name string
		n    uint64
	}
	var classes []class
	var total uint64
	for i, n := range k.exits {
		if n == 0 {
			continue
		}
		total += n
		name := "fetch"
		switch {
		case i < int(numOps):
			name = Op(i).String()
		case i == exitWild:
			name = "wild"
		}
		classes = append(classes, class{name, n})
	}
	slices.SortStableFunc(classes, func(a, b class) int { return cmp.Compare(b.n, a.n) })
	var b strings.Builder
	fmt.Fprintf(&b, "retired %d, to Step %d (%s)", k.retired, total, pct(total))
	for _, x := range classes {
		fmt.Fprintf(&b, ", %s %s", x.name, pct(x.n))
	}
	return b.String()
}
