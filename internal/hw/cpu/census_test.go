package cpu

import (
	"fmt"
	"strings"
	"testing"
)

// TestCensus runs the exit program and reads its census: empty in the
// default build, and under `-tags census` the retired count and a class
// for each kind of exit the program takes.
func TestCensus(t *testing.T) {
	c := buildExitProgram(true, false, "").c
	n := c.Run(^uint64(0))
	got := c.Census()
	if !census {
		if got != "" {
			t.Errorf("the default build's census reads %q", got)
		}
		return
	}
	if want := fmt.Sprintf("retired %d, to Step ", n); !strings.HasPrefix(got, want) {
		t.Errorf("census %q does not start with %q", got, want)
	}
	for _, class := range []string{"fetch", "callm", "callv", "stref", "rem", "trap", "ld8", "ret"} {
		if !strings.Contains(got, ", "+class+" ") {
			t.Errorf("census %q has no %s exits", got, class)
		}
	}
}
