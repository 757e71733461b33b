// Package cpu implements the simulated processor that executes the
// machine code produced by the VM's JIT compilers. It is a RISC-like
// 64-bit machine with 16 general-purpose registers plus dedicated
// stack- and frame-pointer registers, executing against the simulated
// memory hierarchy (packages mem and cache) with a simple cycle cost
// model.
//
// The design follows the needs of the paper's infrastructure (§4):
// every instruction has a unique code address, so the PEBS unit can
// report the exact instruction that caused a sampled event, and the
// compilers can keep machine-code maps from those addresses back to
// bytecode. Instruction fetch is not simulated by default (the paper
// samples data events: L1/L2/DTLB misses, §4.1); the code-layout
// optimization opts into an instruction-fetch model via SetIFetch.
// Each instruction occupies one 4-byte slot of code address space,
// approximating x86 code density for the Table 2 space-overhead
// accounting.
package cpu

import "fmt"

// Op is a machine opcode.
type Op uint8

// Machine opcodes. Arithmetic is 64-bit two's complement; comparisons
// in branches are signed unless marked U (unsigned, used for array
// bounds checks).
const (
	OpNop Op = iota

	OpMovImm // Rd <- Imm
	OpMov    // Rd <- Rs1

	OpAdd // Rd <- Rs1 + Rs2
	OpSub // Rd <- Rs1 - Rs2
	OpMul // Rd <- Rs1 * Rs2
	OpDiv // Rd <- Rs1 / Rs2 (signed, traps on zero divisor)
	OpRem // Rd <- Rs1 % Rs2 (signed, traps on zero divisor)
	OpAnd // Rd <- Rs1 & Rs2
	OpOr  // Rd <- Rs1 | Rs2
	OpXor // Rd <- Rs1 ^ Rs2
	OpShl // Rd <- Rs1 << (Rs2 & 63)
	OpShr // Rd <- Rs1 >>> (Rs2 & 63) (logical)
	OpSar // Rd <- Rs1 >> (Rs2 & 63) (arithmetic)

	OpAddImm // Rd <- Rs1 + Imm
	OpShlImm // Rd <- Rs1 << Imm

	OpLd8 // Rd <- mem64[base(Rs1) + Imm]
	OpLd4 // Rd <- zext(mem32[base(Rs1) + Imm])
	OpLd2 // Rd <- zext(mem16[base(Rs1) + Imm])
	OpLd1 // Rd <- zext(mem8[base(Rs1) + Imm])

	OpSt8   // mem64[base(Rs1) + Imm] <- Rs2
	OpStRef // reference store: OpSt8 plus the generational write barrier
	OpSt2   // mem16[base(Rs1) + Imm] <- low16(Rs2)
	OpSt1   // mem8[base(Rs1) + Imm] <- low8(Rs2)

	OpEnter // push FP; FP <- SP; SP <- SP - Imm (frame size)
	OpLeave // SP <- FP; pop FP

	OpCallM // call method Imm via the method entry table (JTOC-style)
	OpCallV // virtual call: receiver in Rs1, vtable slot Imm
	OpRet   // return: PC <- pop

	OpJmp // PC <- Imm (absolute code address)
	OpBrEQ
	OpBrNE
	OpBrLT
	OpBrLE
	OpBrGT
	OpBrGE
	OpBrUGE // unsigned >=, for bounds checks

	OpTrap // VM service call, service number in Imm

	numOps
)

var opNames = [numOps]string{
	OpNop: "nop", OpMovImm: "movi", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpRem: "rem",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr", OpSar: "sar",
	OpAddImm: "addi", OpShlImm: "shli",
	OpLd8: "ld8", OpLd4: "ld4", OpLd2: "ld2", OpLd1: "ld1",
	OpSt8: "st8", OpStRef: "stref", OpSt2: "st2", OpSt1: "st1",
	OpEnter: "enter", OpLeave: "leave",
	OpCallM: "callm", OpCallV: "callv", OpRet: "ret",
	OpJmp: "jmp", OpBrEQ: "breq", OpBrNE: "brne", OpBrLT: "brlt",
	OpBrLE: "brle", OpBrGT: "brgt", OpBrGE: "brge", OpBrUGE: "bruge",
	OpTrap: "trap",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// NumRegs is the number of general-purpose registers.
const NumRegs = 16

// Register roles by software convention. All GPRs are caller-saved.
const (
	RegRet  = 0 // return value; also first argument
	RegArg0 = 0 // arguments are passed in R0..R7
	MaxArgs = 8 // maximum register-passed arguments
	RegTmp0 = 8 // scratch registers used by the baseline compiler
	RegTmp1 = 9
	RegTmp2 = 10
	RegZero = 15 // hardwired zero: reads as 0, writes ignored
)

// Special base-register encodings usable in the Rs1 field of memory
// instructions (never allocated as GPRs).
const (
	BaseSP = 16 // address base is the stack pointer
	BaseFP = 17 // address base is the frame pointer
)

// Instr is one decoded machine instruction. Each instruction occupies
// InstrBytes of code address space.
type Instr struct {
	Op  Op
	Rd  uint8
	Rs1 uint8
	Rs2 uint8
	Imm int64
}

// InstrBytes is the code-space footprint of one instruction.
const InstrBytes = 4

// String formats the instruction for disassembly listings.
func (i Instr) String() string {
	r := func(n uint8) string {
		switch n {
		case BaseSP:
			return "sp"
		case BaseFP:
			return "fp"
		case RegZero:
			return "zr"
		default:
			return fmt.Sprintf("r%d", n)
		}
	}
	switch i.Op {
	case OpNop, OpRet, OpLeave:
		return i.Op.String()
	case OpMovImm:
		return fmt.Sprintf("%s %s, %d", i.Op, r(i.Rd), i.Imm)
	case OpMov:
		return fmt.Sprintf("%s %s, %s", i.Op, r(i.Rd), r(i.Rs1))
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar:
		return fmt.Sprintf("%s %s, %s, %s", i.Op, r(i.Rd), r(i.Rs1), r(i.Rs2))
	case OpAddImm, OpShlImm:
		return fmt.Sprintf("%s %s, %s, %d", i.Op, r(i.Rd), r(i.Rs1), i.Imm)
	case OpLd8, OpLd4, OpLd2, OpLd1:
		return fmt.Sprintf("%s %s, [%s%+d]", i.Op, r(i.Rd), r(i.Rs1), i.Imm)
	case OpSt8, OpStRef, OpSt2, OpSt1:
		return fmt.Sprintf("%s [%s%+d], %s", i.Op, r(i.Rs1), i.Imm, r(i.Rs2))
	case OpEnter:
		return fmt.Sprintf("enter %d", i.Imm)
	case OpCallM:
		return fmt.Sprintf("callm m%d", i.Imm)
	case OpCallV:
		return fmt.Sprintf("callv [%s], slot %d", r(i.Rs1), i.Imm)
	case OpJmp:
		return fmt.Sprintf("jmp %#x", uint64(i.Imm))
	case OpBrEQ, OpBrNE, OpBrLT, OpBrLE, OpBrGT, OpBrGE, OpBrUGE:
		return fmt.Sprintf("%s %s, %s, %#x", i.Op, r(i.Rs1), r(i.Rs2), uint64(i.Imm))
	case OpTrap:
		return fmt.Sprintf("trap %d", i.Imm)
	default:
		return fmt.Sprintf("%s rd=%d rs1=%d rs2=%d imm=%d", i.Op, i.Rd, i.Rs1, i.Rs2, i.Imm)
	}
}

// fieldsValid reports whether every register field of the instruction
// names a register its opcode can: a GPR, or for the base of a load or
// store also SP or FP. A field its opcode does not read is no register
// field and is not checked.
func (i Instr) fieldsValid() bool {
	gpr := func(r uint8) bool { return r < NumRegs }
	switch i.Op {
	case OpMovImm:
		return gpr(i.Rd)
	case OpMov, OpAddImm, OpShlImm:
		return gpr(i.Rd) && gpr(i.Rs1)
	case OpAdd, OpSub, OpMul, OpDiv, OpRem, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar:
		return gpr(i.Rd) && gpr(i.Rs1) && gpr(i.Rs2)
	case OpLd8, OpLd4, OpLd2, OpLd1:
		return gpr(i.Rd) && i.Rs1 <= BaseFP
	case OpSt8, OpStRef, OpSt2, OpSt1:
		return i.Rs1 <= BaseFP && gpr(i.Rs2)
	case OpCallV:
		return gpr(i.Rs1)
	case OpBrEQ, OpBrNE, OpBrLT, OpBrLE, OpBrGT, OpBrGE, OpBrUGE:
		return gpr(i.Rs1) && gpr(i.Rs2)
	}
	return true
}

// Trap service numbers, handled by the VM runtime (the "trap handler"
// plays the role of Jikes' VM entrypoints).
const (
	TrapExit        = 0 // halt the program; R1 = exit status
	TrapAllocObject = 1 // R1 = class ID; returns object address in R0
	TrapAllocArray  = 2 // R1 = class ID, R2 = length; returns address in R0
	TrapResult      = 3 // R1 = value appended to the program's result log
	TrapNullPtr     = 4 // fatal: null dereference detected by compiled code
	TrapBounds      = 5 // fatal: array index out of bounds
	TrapDivZero     = 6 // fatal: division by zero (raised by CPU)
	TrapYield       = 7 // voluntary safepoint (no-op service)
	TrapIntrinsic   = 8 // R1 = intrinsic ID; fast native helpers
)
