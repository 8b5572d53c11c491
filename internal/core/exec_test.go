package core

import (
	"math"
	"math/rand"
	"testing"

	"riscvsim/internal/asm"
	"riscvsim/internal/config"
	"riscvsim/internal/expr"
	"riscvsim/internal/isa"
	"riscvsim/internal/memory"
)

// ---------------------------------------------------------------------------
// Specialization seam: every specialized opcode must match the expression
// interpreter bit for bit, across randomized operands, through both
// adapters of the semantics kernel — the detailed Execute and the fused
// fast-forward block (the fallback and the fast path implement the same
// semantics by construction, and this property test keeps them from
// drifting).
// ---------------------------------------------------------------------------

// buildInstr assembles a tiny program around one instance of the mnemonic
// so the descriptor, operand resolution and plan compilation all go
// through the production path.
func buildInstr(t *testing.T, set *isa.Set, src string) *asm.Instruction {
	t.Helper()
	regs := isa.NewRegisterFile()
	mem := memory.New(memory.Config{Size: 1 << 16, LoadLatency: 1, StoreLatency: 1})
	prog, err := asm.Assemble(src, set, regs, mem)
	if err != nil {
		t.Fatalf("assembling %q: %v", src, err)
	}
	return prog.Instructions[0]
}

// execCase is one randomized evaluation: captured source values plus
// fetch-time branch prediction state.
type execCase struct {
	vals       []int32
	predTaken  bool
	predTarget int
	predStall  bool
}

// prepInstr builds a SimInstr with captured operands, mirroring what
// rename + srcsReady leave behind by execution time.
func prepInstr(in *asm.Instruction, c *execCase) *SimInstr {
	si := &SimInstr{ID: 1, Static: in, PC: in.Index}
	slot := 0
	for i := range in.Desc.Args {
		a := &in.Desc.Args[i]
		if a.WriteBack || (a.Kind != isa.ArgRegInt && a.Kind != isa.ArgRegFloat) {
			continue
		}
		si.srcs[si.nsrc] = srcOperand{
			name:     a.Name,
			class:    isa.RegInt,
			captured: true,
			value:    expr.NewInt(c.vals[slot]),
		}
		si.nsrc++
		slot++
	}
	si.predTaken = c.predTaken
	si.predTarget = c.predTarget
	si.predStall = c.predStall
	return si
}

// checkFastForward runs one case through the fused fast-forward block of a
// fresh copy of base (a program whose first block is the one instruction
// under test) and compares the architectural outcome with the
// interpreter's: destination value (register, or memory for a store),
// next PC and exception text. Memory accesses are bounds-checked at
// commit in the detailed pipeline, so an out-of-bounds interpreter
// address expects that same fault.
func checkFastForward(t *testing.T, name string, base *Simulation, c *execCase, slow *SimInstr) {
	t.Helper()
	sim, err := base.Fresh()
	if err != nil {
		t.Fatalf("Fresh: %v", err)
	}
	const pattern = 0x0123456789abcdef // negative low byte and half: exercises sign extension
	in := sim.prog.Instructions[0]
	d := in.Desc
	rp := &sim.eng.rplans[0]
	for i := 0; i < int(rp.nsrc); i++ {
		sim.rf.SetArchValue(rp.srcs[i].class, int(rp.srcs[i].reg), expr.NewInt(c.vals[i]))
	}
	wantExc := slow.Exc
	if d.IsLoad() || d.IsStore() {
		if !wantExc.Occurred() {
			wantExc = sim.checkAddress(d, slow.effAddr, in.Index, 0)
		}
		if !wantExc.Occurred() {
			_ = sim.mem.WriteRaw(slow.effAddr, d.MemWidth, pattern)
		}
	}

	sim.Step()

	gotExc := sim.Exception()
	if gotExc.Occurred() != wantExc.Occurred() ||
		(gotExc.Occurred() && gotExc.Error() != wantExc.Error()) {
		t.Errorf("%s %v [fast-forward]: exception %v, want %v", name, c.vals, gotExc, wantExc)
		return
	}
	wantNext := in.Index + 1
	switch {
	case wantExc.Occurred():
		wantNext = in.Index // the faulting instruction does not commit
	case d.IsBranch():
		wantNext = slow.actualTgt
	}
	if sim.PC() != wantNext {
		t.Errorf("%s %v [fast-forward]: next PC %d, want %d", name, c.vals, sim.PC(), wantNext)
	}
	if wantExc.Occurred() {
		return
	}
	var want expr.Value
	switch {
	case d.IsStore():
		raw, _ := sim.mem.ReadRaw(slow.effAddr, d.MemWidth)
		if mask := uint64(1)<<(8*d.MemWidth) - 1; raw != slow.storeData&mask {
			t.Errorf("%s %v [fast-forward]: stored %#x, want %#x", name, c.vals, raw, slow.storeData&mask)
		}
		return
	case d.IsLoad():
		want = LoadValue(d, pattern&(uint64(1)<<(8*d.MemWidth)-1))
	case slow.resultReady:
		want = slow.result
	default:
		return
	}
	if got := sim.rf.ArchValue(rp.destClass, int(rp.destReg)); got != want {
		t.Errorf("%s %v [fast-forward]: destination %v, want %v", name, c.vals, got, want)
	}
}

// compareOutcomes fails the test when the specialized and generic
// executions diverge in any observable way.
func compareOutcomes(t *testing.T, name string, c *execCase, fast, slow *SimInstr) {
	t.Helper()
	if fast.resultReady != slow.resultReady || fast.result != slow.result {
		t.Errorf("%s %v: result fast=(%v,%v) slow=(%v,%v)",
			name, c.vals, fast.result, fast.resultReady, slow.result, slow.resultReady)
	}
	if fast.actualTaken != slow.actualTaken || fast.actualTgt != slow.actualTgt ||
		fast.mispredict != slow.mispredict {
		t.Errorf("%s %v pred=%+v: branch fast=(%v,%d,%v) slow=(%v,%d,%v)",
			name, c.vals, c, fast.actualTaken, fast.actualTgt, fast.mispredict,
			slow.actualTaken, slow.actualTgt, slow.mispredict)
	}
	if fast.effAddr != slow.effAddr || fast.storeData != slow.storeData {
		t.Errorf("%s %v: memory fast=(%d,%d) slow=(%d,%d)",
			name, c.vals, fast.effAddr, fast.storeData, slow.effAddr, slow.storeData)
	}
	switch {
	case fast.Exc.Occurred() != slow.Exc.Occurred():
		t.Errorf("%s %v: exception fast=%v slow=%v", name, c.vals, fast.Exc, slow.Exc)
	case fast.Exc.Occurred():
		if fast.Exc.Kind != slow.Exc.Kind || fast.Exc.Error() != slow.Exc.Error() ||
			fast.Exc.Cycle != slow.Exc.Cycle || fast.Exc.PC != slow.Exc.PC {
			t.Errorf("%s %v: exception fast=%q slow=%q", name, c.vals, fast.Exc.Error(), slow.Exc.Error())
		}
	}
}

func TestExecSpecializedMatchesInterpreter(t *testing.T) {
	set := isa.RV32IMF()
	rng := rand.New(rand.NewSource(42))

	// Edge operands mixed into the random stream.
	edges := []int32{0, 1, -1, 2, -2, 31, 32, 33, math.MaxInt32, math.MinInt32, math.MinInt32 + 1, 0x7FFF, -0x8000}
	randVal := func() int32 {
		if rng.Intn(3) == 0 {
			return edges[rng.Intn(len(edges))]
		}
		return int32(rng.Uint32())
	}

	// One source line per specialized mnemonic. Immediates/labels use
	// in-range values; the interpreter sees the assembled operand either
	// way, so semantic equivalence over the register operands is what is
	// being randomized.
	cases := map[string]string{
		"lui":    "lui t0, 311",
		"auipc":  "auipc t0, 17",
		"jal":    "jal t0, 3\nnop\nnop\nnop\nnop",
		"jalr":   "jalr t0, t1, 8",
		"beq":    "beq t0, t1, 2\nnop\nnop",
		"bne":    "bne t0, t1, 2\nnop\nnop",
		"blt":    "blt t0, t1, 2\nnop\nnop",
		"bge":    "bge t0, t1, 2\nnop\nnop",
		"bltu":   "bltu t0, t1, 2\nnop\nnop",
		"bgeu":   "bgeu t0, t1, 2\nnop\nnop",
		"lb":     "lb t0, 4(t1)",
		"lh":     "lh t0, 4(t1)",
		"lw":     "lw t0, -4(t1)",
		"lbu":    "lbu t0, 2(t1)",
		"lhu":    "lhu t0, 2(t1)",
		"sb":     "sb t0, 3(t1)",
		"sh":     "sh t0, 6(t1)",
		"sw":     "sw t0, -8(t1)",
		"addi":   "addi t0, t1, -2047",
		"slti":   "slti t0, t1, -5",
		"sltiu":  "sltiu t0, t1, 17",
		"xori":   "xori t0, t1, 255",
		"ori":    "ori t0, t1, 1365",
		"andi":   "andi t0, t1, -256",
		"slli":   "slli t0, t1, 13",
		"srli":   "srli t0, t1, 13",
		"srai":   "srai t0, t1, 13",
		"add":    "add t0, t1, t2",
		"sub":    "sub t0, t1, t2",
		"sll":    "sll t0, t1, t2",
		"slt":    "slt t0, t1, t2",
		"sltu":   "sltu t0, t1, t2",
		"xor":    "xor t0, t1, t2",
		"srl":    "srl t0, t1, t2",
		"sra":    "sra t0, t1, t2",
		"or":     "or t0, t1, t2",
		"and":    "and t0, t1, t2",
		"mul":    "mul t0, t1, t2",
		"mulh":   "mulh t0, t1, t2",
		"mulhsu": "mulhsu t0, t1, t2",
		"mulhu":  "mulhu t0, t1, t2",
		"div":    "div t0, t1, t2",
		"divu":   "divu t0, t1, t2",
		"rem":    "rem t0, t1, t2",
		"remu":   "remu t0, t1, t2",
		"fence":  "fence",
	}

	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			in := buildInstr(t, set, src)
			if in.Desc.Name != name {
				t.Fatalf("assembled %q, want %q", in.Desc.Name, name)
			}
			plan := specializePlan(in)
			if plan.op == execFallback {
				t.Fatalf("%s did not specialize; the table drifted from the ISA", name)
			}

			nsrc := 0
			for i := range in.Desc.Args {
				a := &in.Desc.Args[i]
				if !a.WriteBack && (a.Kind == isa.ArgRegInt || a.Kind == isa.ArgRegFloat) {
					nsrc++
				}
			}

			fastEng := &ExecEngine{plans: []execPlan{}, ev: expr.NewEvaluator()}
			fastEng.plans = make([]execPlan, in.Index+1)
			fastEng.plans[in.Index] = plan
			slowEng := &ExecEngine{plans: make([]execPlan, in.Index+1), ev: expr.NewEvaluator()}
			// slowEng's plans stay execFallback: the generic interpreter.
			ffBase := buildSim(t, config.Default(), src)
			ffBase.SetEngineMode(EngineFastForward)

			const rounds = 300
			for round := 0; round < rounds; round++ {
				c := &execCase{
					vals:       make([]int32, nsrc),
					predTaken:  rng.Intn(2) == 0,
					predTarget: rng.Intn(6),
					predStall:  rng.Intn(8) == 0,
				}
				for i := range c.vals {
					c.vals[i] = randVal()
				}
				now := uint64(rng.Intn(1000) + 1)
				fast := prepInstr(in, c)
				slow := prepInstr(in, c)
				fastEng.Execute(fast, now)
				slowEng.Execute(slow, now)
				compareOutcomes(t, name, c, fast, slow)
				checkFastForward(t, name, ffBase, c, slow)
			}
		})
	}
}

// TestExecSpecializationCoverage documents which fraction of the default
// ISA specializes and pins that a user-redefined descriptor falls back.
func TestExecSpecializationCoverage(t *testing.T) {
	set := isa.RV32IMF()
	specialized := 0
	for _, d := range set.All() {
		if _, ok := specTable[d.Name]; ok {
			specialized++
		}
	}
	if specialized < 45 {
		t.Errorf("only %d descriptors in the specialization table; RV32IM should be fully covered", specialized)
	}

	// A descriptor with a built-in name but altered semantics must not
	// take the fast path.
	alien := isa.NewSet()
	alien.Register(&isa.Desc{
		Name: "add", Type: isa.TypeArithmetic, Unit: isa.FX, Format: isa.FmtR,
		Args: []isa.ArgDesc{
			{Name: "rd", Kind: isa.ArgRegInt, Type: expr.Int, WriteBack: true},
			{Name: "rs1", Kind: isa.ArgRegInt, Type: expr.Int},
			{Name: "rs2", Kind: isa.ArgRegInt, Type: expr.Int},
		},
		ExprSrc: `\rs1 \rs2 + 1 + \rd =`, // off-by-one "add"
	})
	regs := isa.NewRegisterFile()
	mem := memory.New(memory.Config{Size: 1 << 12, LoadLatency: 1, StoreLatency: 1})
	prog, err := asm.Assemble("add t0, t1, t2\n", alien, regs, mem)
	if err != nil {
		t.Fatal(err)
	}
	if plan := specializePlan(prog.Instructions[0]); plan.op != execFallback {
		t.Errorf("redefined add specialized to op %d; must fall back to the interpreter", plan.op)
	}
}

// ---------------------------------------------------------------------------
// Zero-allocation contract: in steady state, Step() must not touch the
// heap (the CI allocation gate runs this test).
// ---------------------------------------------------------------------------

func TestStepAllocFree(t *testing.T) {
	// A mispredicting integer loop with loads and stores: exercises
	// fetch, rename, issue, the specialized engine, the LSU, commit,
	// flush recovery and instruction recycling.
	sim := buildSim(t, config.Default(), `
  la s0, buf
  li t0, 0
  li t1, 40000
loop:
  andi t2, t0, 7
  slli t3, t2, 2
  add  t3, t3, s0
  sw   t0, 0(t3)
  lw   t4, 0(t3)
  andi t5, t0, 1
  bne  t5, x0, odd
  addi t6, t4, 3
odd:
  addi t0, t0, 1
  bne  t0, t1, loop
.data
.align 4
buf: .zero 64
`)
	// Warm up: grow every scratch buffer, the free list, the rename
	// structures and the log to their steady-state footprint.
	sim.Run(20000)
	if sim.Halted() {
		t.Fatal("program finished during warm-up; extend the loop")
	}
	avg := testing.AllocsPerRun(5000, func() {
		sim.Step()
	})
	if sim.Halted() {
		t.Fatal("program finished during measurement; extend the loop")
	}
	if avg != 0 {
		t.Errorf("Step() allocates %.4f objects/op in steady state, want 0", avg)
	}
}
