package main

import (
	"strings"
	"testing"
)

// stream is `go test -json` on five packages: one with a passing and a
// failing test (the failure in a subtest), one with no test files, one
// that does not build, one whose test times out and one that passes.
const stream = `{"Action":"start","Package":"p/a"}
{"Action":"output","Package":"p/b","Output":"?   \tp/b\t[no test files]\n"}
{"Action":"skip","Package":"p/b","Elapsed":0}
{"Action":"run","Package":"p/a","Test":"TestOK"}
{"Action":"output","Package":"p/a","Test":"TestOK","Output":"=== RUN   TestOK\n"}
{"Action":"output","Package":"p/a","Test":"TestOK","Output":"    a_test.go:3: hidden\n"}
{"Action":"output","Package":"p/a","Test":"TestOK","Output":"--- PASS: TestOK (1.50s)\n"}
{"Action":"pass","Package":"p/a","Test":"TestOK","Elapsed":1.5}
{"Action":"output","Package":"p/a","Test":"TestFail","Output":"=== RUN   TestFail\n"}
{"Action":"output","Package":"p/a","Test":"TestFail/sub","Output":"=== RUN   TestFail/sub\n"}
{"Action":"output","Package":"p/a","Test":"TestFail/sub","Output":"    a_test.go:4: boom\n"}
{"Action":"output","Package":"p/a","Test":"TestFail/sub","Output":"--- FAIL: TestFail/sub (9.00s)\n"}
{"Action":"fail","Package":"p/a","Test":"TestFail/sub","Elapsed":9}
{"Action":"output","Package":"p/a","Test":"TestFail","Output":"--- FAIL: TestFail (9.00s)\n"}
{"Action":"fail","Package":"p/a","Test":"TestFail","Elapsed":9}
{"Action":"output","Package":"p/a","Output":"FAIL\n"}
{"Action":"output","Package":"p/a","Output":"FAIL\tp/a\t10.5s\n"}
{"Action":"fail","Package":"p/a","Elapsed":10.5}
{"ImportPath":"p/d [p/d.test]","Action":"build-output","Output":"# p/d [p/d.test]\n"}
{"ImportPath":"p/d [p/d.test]","Action":"build-output","Output":"d/d_test.go:3:29: undefined: undefined\n"}
{"ImportPath":"p/d [p/d.test]","Action":"build-fail"}
{"Action":"output","Package":"p/d","Output":"FAIL\tp/d [build failed]\n"}
{"Action":"fail","Package":"p/d","Elapsed":0,"FailedBuild":"p/d [p/d.test]"}
{"Action":"output","Package":"p/e","Test":"TestHangs","Output":"=== RUN   TestHangs\n"}
{"Action":"output","Package":"p/e","Test":"TestHangs","Output":"panic: test timed out after 1s\n"}
{"Action":"output","Package":"p/e","Output":"FAIL\tp/e\t1.0s\n"}
{"Action":"fail","Package":"p/e","Elapsed":1}
{"Action":"output","Package":"p/c","Test":"TestC","Output":"--- PASS: TestC (3.00s)\n"}
{"Action":"pass","Package":"p/c","Test":"TestC","Elapsed":3}
{"Action":"output","Package":"p/c","Output":"PASS\n"}
{"Action":"output","Package":"p/c","Output":"ok  \tp/c\t3.1s\n"}
{"Action":"pass","Package":"p/c","Elapsed":3.1}
not an event
`

func TestReport(t *testing.T) {
	s := newSummary()
	var out strings.Builder
	if err := s.read(strings.NewReader(stream), &out); err != nil {
		t.Fatal(err)
	}
	s.slowest(&out, 2)
	want := `?   	p/b	[no test files]
    a_test.go:4: boom
--- FAIL: TestFail/sub (9.00s)
--- FAIL: TestFail (9.00s)
FAIL
FAIL	p/a	10.5s
# p/d [p/d.test]
d/d_test.go:3:29: undefined: undefined
FAIL	p/d [build failed]
panic: test timed out after 1s
FAIL	p/e	1.0s
ok  	p/c	3.1s
not an event
slowest tests:
    9.00s  p/a  TestFail
    3.00s  p/c  TestC
`
	if out.String() != want {
		t.Errorf("report:\n%s\nwant:\n%s", out.String(), want)
	}
}
