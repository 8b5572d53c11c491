package main

import (
	"fmt"
	"testing"

	"riscvsim/sim"
)

// The c-build oracle is only as good as the Go reference values: every
// generated kernel must return them from the simulator at every -O level.
func TestCKernelsMatchSimulator(t *testing.T) {
	for i := 0; i < 12; i++ {
		k := genCKernel(rngFor(3, 2, i), i%cKinds, i%cSizeQuarters)
		for opt := 0; opt <= 3; opt++ {
			m, err := sim.NewFromC(sim.DefaultConfig(), k.src, opt)
			if err != nil {
				t.Fatalf("kernel %d -O%d: %v\n%s", i, opt, err, k.src)
			}
			m.Run(5_000_000)
			if !m.Halted() {
				t.Fatalf("kernel %d -O%d did not halt", i, opt)
			}
			a0, err := m.IntReg("a0")
			if err != nil || a0 != k.want {
				t.Errorf("kernel %d -O%d: a0 = %d (%v), want %d\n%s", i, opt, a0, err, k.want, k.src)
			}
		}
	}
}

func TestScanFields(t *testing.T) {
	b := []byte(`{"cycles":42,"stats":{"committedInstructions":-7},"intRegisters":[{"name":"x10","alias":"a0","value":"-123"}]}`)
	if v, ok := scanNumber(b, keyCycles); !ok || v != 42 {
		t.Errorf("cycles = %d, %v", v, ok)
	}
	if v, ok := scanNumber(b, keyCommitted); !ok || v != -7 {
		t.Errorf("committed = %d, %v", v, ok)
	}
	if v, ok := scanString(b, keyA0); !ok || v != fmt.Sprint(-123) {
		t.Errorf("a0 = %q, %v", v, ok)
	}
	if _, ok := scanNumber(b, keyCycle); ok {
		t.Error(`found "cycle": in a document without it`)
	}
}
