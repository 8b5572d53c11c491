package core

import (
	"math"

	"riscvsim/internal/asm"
	"riscvsim/internal/expr"
	"riscvsim/internal/fault"
	"riscvsim/internal/isa"
)

// Specialized execution engine: at program load every static instruction's
// semantics are compiled once into an execPlan — a compact opcode plus
// operands pre-resolved to renamed-source slots and immediate values — so
// the per-cycle execute path runs a direct switch on integers instead of
// walking the generic postfix program through string-keyed environment
// lookups. Anything outside the specialized RV32IM(+FP memory) subset, or
// any instruction whose descriptor was altered by a user-loaded ISA, falls
// back to the expression interpreter, so coverage stays total and the
// semantics-as-data extensibility of the paper (§III-B) is preserved.
//
// The specialized semantics are written once, in execKernel. Two adapters
// call it: Execute (the detailed pipeline: operands from renamed source
// slots, outcome onto the SimInstr) and ffRunBlock in blockplan.go (fast
// forward: operands from the architectural file, outcome back into it or
// into memory). The expression interpreter stays a separate
// implementation, the reference both are checked against.
//
// The fast path is only taken when the descriptor's expression source and
// argument shapes match the built-in table exactly, and it relies on the
// core's value invariant: integer-class register values always carry type
// kInt (every writeback converts to the destination argument's declared
// type). TestExecSpecializedMatchesInterpreter cross-checks every
// specialized opcode against the interpreter over randomized operands,
// through both adapters.

// execOp is the specialized opcode of one static instruction.
type execOp uint8

const (
	execFallback execOp = iota // generic expression interpreter
	execNop                    // empty semantics (fence, ecall, ebreak)
	execLUI
	execAUIPC
	execJAL
	execJALR
	execBEQ
	execBNE
	execBLT
	execBGE
	execBLTU
	execBGEU
	execLoadAddr  // loads: effective address rs1+imm
	execStoreAddr // stores: effective address rs1+imm, payload from rs2
	execADDI
	execSLTI
	execSLTIU
	execXORI
	execORI
	execANDI
	execSLLI
	execSRLI
	execSRAI
	execADD
	execSUB
	execSLL
	execSLT
	execSLTU
	execXOR
	execSRL
	execSRA
	execOR
	execAND
	execMUL
	execMULH
	execMULHSU
	execMULHU
	execDIV
	execDIVU
	execREM
	execREMU
)

// execPlan is the load-time compilation of one static instruction.
type execPlan struct {
	op execOp
	// rs1/rs2 are slots in si.srcs (the rename order of the descriptor's
	// source arguments), or -1 when the operand is absent.
	rs1 int8
	rs2 int8
	// imm is the semantic immediate exactly as the interpreter sees it
	// (expr.NewInt truncation of the operand value).
	imm int32
	// tgt is the absolute PC-relative target (index + untruncated operand
	// value), matching resolveBranch's arithmetic.
	tgt int
}

// specDef is one row of the specialization table: the exact built-in
// expression source plus the descriptor flags the plan relies on.
type specDef struct {
	src         string
	op          execOp
	conditional bool
	pcRelative  bool
	needRs1     bool
	needRs2     bool
	halts       bool
	mem         bool // load/store: float payload/destination allowed
}

var specTable = map[string]specDef{
	"lui":   {src: `\imm 12 << \rd =`, op: execLUI},
	"auipc": {src: `\imm 12 << \pc + \rd =`, op: execAUIPC},
	"jal":   {src: `\pc 1 + \rd =`, op: execJAL, pcRelative: true},
	"jalr":  {src: `\pc 1 + \rd = \rs1 \imm +`, op: execJALR, needRs1: true},

	"beq":  {src: `\rs1 \rs2 ==`, op: execBEQ, conditional: true, pcRelative: true, needRs1: true, needRs2: true},
	"bne":  {src: `\rs1 \rs2 !=`, op: execBNE, conditional: true, pcRelative: true, needRs1: true, needRs2: true},
	"blt":  {src: `\rs1 \rs2 <`, op: execBLT, conditional: true, pcRelative: true, needRs1: true, needRs2: true},
	"bge":  {src: `\rs1 \rs2 >=`, op: execBGE, conditional: true, pcRelative: true, needRs1: true, needRs2: true},
	"bltu": {src: `\rs1 \rs2 <u`, op: execBLTU, conditional: true, pcRelative: true, needRs1: true, needRs2: true},
	"bgeu": {src: `\rs1 \rs2 >=u`, op: execBGEU, conditional: true, pcRelative: true, needRs1: true, needRs2: true},

	"lb":  {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"lh":  {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"lw":  {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"lbu": {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"lhu": {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"flw": {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"fld": {src: `\rs1 \imm +`, op: execLoadAddr, needRs1: true, mem: true},
	"sb":  {src: `\rs1 \imm +`, op: execStoreAddr, needRs1: true, needRs2: true, mem: true},
	"sh":  {src: `\rs1 \imm +`, op: execStoreAddr, needRs1: true, needRs2: true, mem: true},
	"sw":  {src: `\rs1 \imm +`, op: execStoreAddr, needRs1: true, needRs2: true, mem: true},
	"fsw": {src: `\rs1 \imm +`, op: execStoreAddr, needRs1: true, needRs2: true, mem: true},
	"fsd": {src: `\rs1 \imm +`, op: execStoreAddr, needRs1: true, needRs2: true, mem: true},

	"addi":  {src: `\rs1 \imm + \rd =`, op: execADDI, needRs1: true},
	"slti":  {src: `\rs1 \imm < \rd =`, op: execSLTI, needRs1: true},
	"sltiu": {src: `\rs1 \imm <u \rd =`, op: execSLTIU, needRs1: true},
	"xori":  {src: `\rs1 \imm ^ \rd =`, op: execXORI, needRs1: true},
	"ori":   {src: `\rs1 \imm | \rd =`, op: execORI, needRs1: true},
	"andi":  {src: `\rs1 \imm & \rd =`, op: execANDI, needRs1: true},
	"slli":  {src: `\rs1 \imm << \rd =`, op: execSLLI, needRs1: true},
	"srli":  {src: `\rs1 \imm >>> \rd =`, op: execSRLI, needRs1: true},
	"srai":  {src: `\rs1 \imm >> \rd =`, op: execSRAI, needRs1: true},

	"add":  {src: `\rs1 \rs2 + \rd =`, op: execADD, needRs1: true, needRs2: true},
	"sub":  {src: `\rs1 \rs2 - \rd =`, op: execSUB, needRs1: true, needRs2: true},
	"sll":  {src: `\rs1 \rs2 << \rd =`, op: execSLL, needRs1: true, needRs2: true},
	"slt":  {src: `\rs1 \rs2 < \rd =`, op: execSLT, needRs1: true, needRs2: true},
	"sltu": {src: `\rs1 \rs2 <u \rd =`, op: execSLTU, needRs1: true, needRs2: true},
	"xor":  {src: `\rs1 \rs2 ^ \rd =`, op: execXOR, needRs1: true, needRs2: true},
	"srl":  {src: `\rs1 \rs2 >>> \rd =`, op: execSRL, needRs1: true, needRs2: true},
	"sra":  {src: `\rs1 \rs2 >> \rd =`, op: execSRA, needRs1: true, needRs2: true},
	"or":   {src: `\rs1 \rs2 | \rd =`, op: execOR, needRs1: true, needRs2: true},
	"and":  {src: `\rs1 \rs2 & \rd =`, op: execAND, needRs1: true, needRs2: true},

	"mul":    {src: `\rs1 \rs2 * \rd =`, op: execMUL, needRs1: true, needRs2: true},
	"mulh":   {src: `\rs1 \rs2 mulh \rd =`, op: execMULH, needRs1: true, needRs2: true},
	"mulhsu": {src: `\rs1 \rs2 mulhsu \rd =`, op: execMULHSU, needRs1: true, needRs2: true},
	"mulhu":  {src: `\rs1 \rs2 mulhu \rd =`, op: execMULHU, needRs1: true, needRs2: true},
	"div":    {src: `\rs1 \rs2 / \rd =`, op: execDIV, needRs1: true, needRs2: true},
	"divu":   {src: `\rs1 \rs2 /u \rd =`, op: execDIVU, needRs1: true, needRs2: true},
	"rem":    {src: `\rs1 \rs2 % \rd =`, op: execREM, needRs1: true, needRs2: true},
	"remu":   {src: `\rs1 \rs2 %u \rd =`, op: execREMU, needRs1: true, needRs2: true},

	"fence":  {src: ``, op: execNop},
	"ecall":  {src: ``, op: execNop, halts: true},
	"ebreak": {src: ``, op: execNop, halts: true},
}

// specializePlan compiles one static instruction, or returns the fallback
// plan when the descriptor does not match the built-in table exactly.
func specializePlan(in *asm.Instruction) execPlan {
	fallback := execPlan{op: execFallback}
	d := in.Desc
	def, ok := specTable[d.Name]
	if !ok || d.ExprSrc != def.src ||
		d.Conditional != def.conditional || d.PCRelative != def.pcRelative ||
		d.Halts != def.halts {
		return fallback
	}
	// Walk the argument list in the exact order renameStep captures
	// sources, resolving rs1/rs2 to their src slots and verifying the
	// types the specialized arithmetic assumes.
	rs1, rs2 := int8(-1), int8(-1)
	slot := int8(0)
	for i := range d.Args {
		a := &d.Args[i]
		switch {
		case a.WriteBack:
			// Specialized ALU results are written as kInt; memory
			// destinations are filled by LoadValue, so any class works.
			if !def.mem && (a.Kind != isa.ArgRegInt || a.Type != expr.Int) {
				return fallback
			}
		case a.Kind == isa.ArgRegInt || a.Kind == isa.ArgRegFloat:
			switch a.Name {
			case "rs1":
				// The address/operand base must be an integer.
				if a.Kind != isa.ArgRegInt || a.Type != expr.Int {
					return fallback
				}
				rs1 = slot
			case "rs2":
				// A store payload may be a float register (captured as
				// raw bits); every other rs2 must be an integer.
				if !(def.mem && def.op == execStoreAddr) &&
					(a.Kind != isa.ArgRegInt || a.Type != expr.Int) {
					return fallback
				}
				rs2 = slot
			default:
				return fallback
			}
			slot++
		default: // immediate or label
			if a.Name != "imm" || a.Type != expr.Int {
				return fallback
			}
		}
	}
	if (def.needRs1 && rs1 < 0) || (def.needRs2 && rs2 < 0) {
		return fallback
	}
	p := execPlan{op: def.op, rs1: rs1, rs2: rs2}
	if op := in.Op("imm"); op != nil {
		p.imm = int32(op.Val)
		p.tgt = in.Index + int(op.Val)
	}
	return p
}

// ExecEngine executes instruction semantics for one simulation: the
// specialized fast path over pre-compiled plans, with the expression
// interpreter as the total fallback. Not safe for concurrent use (the
// pipeline executes sequentially).
type ExecEngine struct {
	prog   *asm.Program
	plans  []execPlan
	rplans []renamePlan
	ev     *expr.Evaluator
	env    instrEnv // reusable fallback Env; passing &env avoids boxing
	// forceGeneric routes every instruction through the expression
	// interpreter, ignoring the specialized plans — the functional
	// reference path of the co-simulation harness (EngineInterpreter).
	forceGeneric bool
	// Basic-block index for the fast-forward functional mode and fetch
	// batching, built lazily on first use (blockplan.go). blockEnd[i] is
	// the exclusive end of the block containing instruction i; blocks is
	// the per-start-PC fused plan cache.
	blocks   []*blockPlan
	blockEnd []int32
}

// semanticBug, when non-nil, post-processes every value execKernel
// computes, so it reaches the detailed and the fused fast-forward engines
// alike. It exists solely so the co-simulation harness can prove
// end-to-end that an engine divergence is detected and shrunk
// (internal/fuzz); the interpreter path never sees it, so any injected bug
// diverges the engines. Production runs leave it nil and pay one pointer
// check.
var semanticBug func(op string, a, b, result int32) int32

// execOpName names each value-producing opcode for the semanticBug hook.
var execOpName = func() (names [execREMU + 1]string) {
	for name, def := range specTable {
		names[def.op] = name // shared opcodes (loads, stores, nops) never reach the hook
	}
	return names
}()

// SetSemanticBugForTesting installs (nil clears) the specialized-path
// result corruption hook. Test-only: not safe to toggle while simulations
// run concurrently.
func SetSemanticBugForTesting(f func(op string, a, b, result int32) int32) {
	semanticBug = f
}

// newExecEngine compiles every static instruction of the program.
func newExecEngine(prog *asm.Program) *ExecEngine {
	e := &ExecEngine{
		prog:   prog,
		plans:  make([]execPlan, len(prog.Instructions)),
		rplans: newRenamePlans(prog),
		ev:     expr.NewEvaluator(),
	}
	for i, in := range prog.Instructions {
		e.plans[i] = specializePlan(in)
	}
	return e
}

// Execute evaluates the instruction's semantics against its captured
// operands, leaving results, branch outcomes, effective addresses, store
// payloads and exceptions on the instruction — the compute half of the
// functional-unit model (paper §III-A). It is the detailed adapter of
// execKernel: operands come from the renamed source slots and the
// outcome lands on the SimInstr.
func (e *ExecEngine) Execute(si *SimInstr, now uint64) {
	p := &e.plans[si.PC]
	if e.forceGeneric || p.op == execFallback {
		e.executeGeneric(si, now)
		return
	}
	var a, b int32
	if p.rs1 >= 0 {
		a = intOperand(si.srcs[p.rs1].value)
	}
	if p.rs2 >= 0 && p.op != execStoreAddr {
		b = intOperand(si.srcs[p.rs2].value)
	}
	v, next, k := execKernel(p.op, a, b, p.imm, si.PC, p.tgt)
	switch k {
	case outValue, outJump:
		// Buffered exactly as the interpreter's `=` would: converted to
		// the declared kInt operand type.
		si.result, si.resultReady = expr.NewInt(v), true
		if k == outJump {
			finishBranch(si, true, next)
		}
	case outBranch:
		finishBranch(si, v != 0, next)
	case outAddr:
		si.effAddr = int(v)
		if p.op == execStoreAddr {
			si.storeData = si.srcs[p.rs2].value.Bits()
		}
	case outDivZero:
		si.Exc = divZeroFault(p.op, v, si.PC, now)
	}
}

// intOperand reads a register value as an int32 kernel operand. The kInt
// values integer registers carry (the value invariant stated at the top
// of this file) are read straight from their bits, inline; any other type
// takes the full conversion.
func intOperand(v expr.Value) int32 {
	if v.Type() == expr.Int {
		return int32(uint32(v.Bits()))
	}
	return v.Int()
}

// execOutcome classifies what execKernel computed.
type execOutcome uint8

const (
	outValue   execOutcome = iota // v is the destination value
	outJump                       // v is the link value; control goes to next
	outBranch                     // v is 1 when taken, 0 when not; control goes to next
	outAddr                       // v is the load/store effective address
	outDivZero                    // division by zero; v is the dividend
	outNone                       // no effect (fence, ecall, ebreak)
)

// execKernel is the RV32IM integer semantics of every specialized
// opcode, shared by the detailed pipeline (Execute) and the fused
// fast-forward blocks (ffRunBlock); each adapter only sources the
// operands and sinks the outcome. next is the successor PC: the target
// of a jump or taken branch, pc+1 otherwise. It is deliberately one call
// returning scalars — a fused op pays for exactly this call.
func execKernel(op execOp, a, b, imm int32, pc, tgt int) (v int32, next int, k execOutcome) {
	next = pc + 1
	switch op {
	case execNop:
		return 0, next, outNone
	case execLUI:
		v = imm << 12
	case execAUIPC:
		v = imm<<12 + int32(pc)
	case execJAL:
		v, next, k = int32(pc)+1, tgt, outJump
	case execJALR:
		v, next, k = int32(pc)+1, int(a+imm), outJump
	case execBEQ:
		return branchTo(a == b, pc, tgt)
	case execBNE:
		return branchTo(a != b, pc, tgt)
	case execBLT:
		return branchTo(a < b, pc, tgt)
	case execBGE:
		return branchTo(a >= b, pc, tgt)
	case execBLTU:
		return branchTo(uint32(a) < uint32(b), pc, tgt)
	case execBGEU:
		return branchTo(uint32(a) >= uint32(b), pc, tgt)
	case execLoadAddr, execStoreAddr:
		return a + imm, next, outAddr
	case execADDI:
		v = a + imm
	case execSLTI:
		v = b2i(a < imm)
	case execSLTIU:
		v = b2i(uint32(a) < uint32(imm))
	case execXORI:
		v = a ^ imm
	case execORI:
		v = a | imm
	case execANDI:
		v = a & imm
	case execSLLI:
		v = int32(uint32(a) << (uint32(imm) & 31))
	case execSRLI:
		v = int32(uint32(a) >> (uint32(imm) & 31))
	case execSRAI:
		v = a >> (uint32(imm) & 31)
	case execADD:
		v = a + b
	case execSUB:
		v = a - b
	case execSLL:
		v = int32(uint32(a) << (uint32(b) & 31))
	case execSLT:
		v = b2i(a < b)
	case execSLTU:
		v = b2i(uint32(a) < uint32(b))
	case execXOR:
		v = a ^ b
	case execSRL:
		v = int32(uint32(a) >> (uint32(b) & 31))
	case execSRA:
		v = a >> (uint32(b) & 31)
	case execOR:
		v = a | b
	case execAND:
		v = a & b
	case execMUL:
		v = a * b
	case execMULH:
		v = int32((int64(a) * int64(b)) >> 32)
	case execMULHSU:
		v = int32((int64(a) * int64(uint64(uint32(b)))) >> 32)
	case execMULHU:
		v = int32((uint64(uint32(a)) * uint64(uint32(b))) >> 32)
	case execDIV:
		switch {
		case b == 0:
			return a, next, outDivZero
		case a == math.MinInt32 && b == -1:
			v = math.MinInt32 // RISC-V overflow semantics
		default:
			v = a / b
		}
	case execREM:
		switch {
		case b == 0:
			return a, next, outDivZero
		case a == math.MinInt32 && b == -1:
			v = 0
		default:
			v = a % b
		}
	case execDIVU:
		if b == 0 {
			return a, next, outDivZero
		}
		v = int32(uint32(a) / uint32(b))
	case execREMU:
		if b == 0 {
			return a, next, outDivZero
		}
		v = int32(uint32(a) % uint32(b))
	}
	if semanticBug != nil {
		v = semanticBug(execOpName[op], a, b, v)
	}
	return v, next, k
}

// branchTo resolves a conditional branch for execKernel.
func branchTo(taken bool, pc, tgt int) (int32, int, execOutcome) {
	if taken {
		return 1, tgt, outBranch
	}
	return 0, pc + 1, outBranch
}

// divZeroFormat words the division-by-zero fault of each divide exactly
// like the interpreter (the paper traps where the RISC-V spec would
// return a value).
var divZeroFormat = [...]string{
	execDIV:  "integer division %d / 0",
	execDIVU: "unsigned division %d / 0",
	execREM:  "integer remainder %d %% 0",
	execREMU: "unsigned remainder %d %% 0",
}

// divZeroFault is the exception of an outDivZero outcome; a is the dividend.
func divZeroFault(op execOp, a int32, pc int, now uint64) *fault.Exception {
	exc := fault.New(fault.DivisionByZero, divZeroFormat[op], a)
	exc.Cycle = now
	exc.PC = pc
	return exc
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// executeGeneric is the total fallback: the expression interpreter over
// the instruction's compiled program, plus the post-evaluation capture of
// branch outcomes, effective addresses and store payloads.
func (e *ExecEngine) executeGeneric(si *SimInstr, now uint64) {
	e.env.si = si
	res, err := e.ev.Eval(si.Static.Desc.Prog, &e.env)
	e.env.si = nil
	if err != nil {
		if exc, ok := err.(*fault.Exception); ok {
			exc.Cycle = now
			exc.PC = si.PC
			si.Exc = exc
		} else {
			si.Exc = &fault.Exception{Kind: fault.InvalidInstruction, Msg: err.Error(), Cycle: now, PC: si.PC}
		}
		return
	}
	desc := si.Static.Desc
	switch {
	case desc.IsBranch():
		resolveBranch(si, res)
	case desc.IsLoad(), desc.IsStore():
		// The expression computed the effective address.
		if res.HasValue {
			si.effAddr = int(res.Value.Int())
		}
		if desc.IsStore() {
			// Capture the store payload from rs2 now.
			for i := 0; i < int(si.nsrc); i++ {
				if si.srcs[i].name == "rs2" {
					si.storeData = si.srcs[i].value.Bits()
				}
			}
		}
	}
}

// resolveBranch computes the actual direction and target from the generic
// evaluation result. Conditional branches leave their condition on the
// expression stack; jalr leaves its absolute target; PC-relative jumps use
// the immediate (paper §III-B).
func resolveBranch(si *SimInstr, res expr.Result) {
	desc := si.Static.Desc
	taken := true
	if desc.Conditional {
		taken = res.HasValue && res.Value.Bool()
	}
	tgt := si.actualTgt
	if desc.PCRelative {
		if imm := si.Static.Op("imm"); imm != nil {
			tgt = si.PC + int(imm.Val)
		}
	} else if res.HasValue {
		tgt = int(res.Value.Int())
	}
	finishBranch(si, taken, tgt)
}

// finishBranch records the resolved direction/target and classifies the
// prediction. A misprediction is any difference between the next PC fetch
// assumed and the real one; a fetch stalled on an unknown target
// (predStall) fetched nothing wrong, so it only needs a redirect.
func finishBranch(si *SimInstr, taken bool, tgt int) {
	si.actualTaken = taken
	si.actualTgt = tgt
	if !taken {
		si.actualTgt = si.PC + 1
	}
	predNext := si.PC + 1
	if si.predTaken {
		predNext = si.predTarget
	}
	si.mispredict = !si.predStall && predNext != si.actualTgt
}
