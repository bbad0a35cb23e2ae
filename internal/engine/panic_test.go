package engine

import (
	"strings"
	"testing"

	"soma/internal/sa"
)

// TestRecoveredStack: a recovered panic carries the panicking goroutine's
// stack - the current one, or a portfolio chain's own.
func TestRecoveredStack(t *testing.T) {
	cp := &sa.ChainPanic{Chain: 1, Value: "boom", Stack: []byte("chain 1's stack")}
	if pe := Recovered(cp); string(pe.Stack) != "chain 1's stack" ||
		pe.Error() != "panic: sa: portfolio chain 1: boom" {
		t.Fatalf("chain panic: error %q, stack %q", pe.Error(), pe.Stack)
	}
	var pe *PanicError
	func() {
		defer func() { pe = Recovered(recover()) }()
		panicHere()
	}()
	if pe.Error() != "panic: here" || !strings.Contains(string(pe.Stack), "engine.panicHere") {
		t.Fatalf("local panic: error %q, stack:\n%s", pe.Error(), pe.Stack)
	}
}

func panicHere() { panic("here") }
