package main

import (
	"strings"
	"testing"
)

// Every bad flag value is an error before any experiment runs — never a
// panic deep inside one.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range []string{
		"-exp fig13 -scale tiny -comps sz -maxtest 0",
		"-exp fig13 -scale tiny -comps sz -maxtest -1",
		"-exp fig13 -scale tiny -parallelism -1",
		"-exp fig13 -scale huge",
		"-exp nosuch -scale tiny",
		"-exp fig11,nosuch -scale tiny",
	} {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("%s: panic: %v", args, p)
				}
			}()
			if err := run(strings.Fields(args)); err == nil {
				t.Errorf("%s: no error", args)
			}
		}()
	}
}
