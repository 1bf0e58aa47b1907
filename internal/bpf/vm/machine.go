package vm

import (
	"errors"
	"fmt"

	"srv6bpf/internal/bpf/asm"
)

// StackSize is the per-execution stack, matching the kernel's
// MAX_BPF_STACK of 512 bytes.
const StackSize = 512

// DefaultMaxInstructions caps a single execution as a runtime safety
// net behind the verifier's static loop rejection.
const DefaultMaxInstructions = 1 << 20

// Execution errors.
var (
	ErrMaxInstructions = errors.New("vm: instruction budget exhausted")
	ErrBadJumpTarget   = errors.New("vm: jump into the middle of an lddw")
	ErrUnknownHelper   = errors.New("vm: call to unknown helper")
	ErrBadOpcode       = errors.New("vm: invalid opcode")
	ErrFellOff         = errors.New("vm: execution fell off the end of the program")
)

// HelperFunc implements one kernel helper. Arguments arrive in
// r1..r5; the return value is placed in r0. Helpers may inspect and
// modify machine memory through m.Mem.
type HelperFunc func(m *Machine, r1, r2, r3, r4, r5 uint64) (uint64, error)

// MaxHelperID bounds the dense helper dispatch table.
const MaxHelperID = 256

// maxHelperID is kept as an internal alias for the dispatch tables.
const maxHelperID = MaxHelperID

// HelperTable maps helper IDs to implementations.
type HelperTable [maxHelperID]HelperFunc

// Micro-op kinds. expand resolves every wire slot into one of these
// so the interpreter dispatches on a single byte instead of re-
// deriving Class/ALUOp/JumpOp/Size/Source from the opcode each step.
const (
	uPad      uint8 = iota // lddw second slot; executing it is an error
	uALU64Reg              // regs[dst] = alu64(aluop, regs[dst], regs[src])
	uALU64Imm              // regs[dst] = alu64(aluop, regs[dst], operand)
	uALU32Reg
	uALU32Imm
	uNeg64
	uNeg32
	uSwap   // byte swap; imm holds the width, src 1 means to-BE
	uJa     // pc = target
	uExit   // return regs[0]
	uCall   // helper call, id in imm
	uJmpReg // 64-bit conditional, reg operand
	uJmpImm // 64-bit conditional, pre-extended imm operand
	uJmp32Reg
	uJmp32Imm
	uLoad     // regs[dst] = mem[regs[src]+off], size bytes
	uStoreReg // mem[regs[dst]+off] = regs[src]
	uStoreImm // mem[regs[dst]+off] = operand
	uXadd     // mem[regs[dst]+off] += regs[src], size 4 or 8
	uLdImm64  // regs[dst] = imm (full 64 bits); pc = target (skips pad)
	uBad      // invalid opcode: fault at execution time, like hardware
)

// slot is one decoded wire slot, pre-decoded into a flat micro-op:
// the kind byte selects the operation, aluop/jumpop/size are resolved
// once, immediate operands are sign-extended once, and jump targets
// are absolute slot indices.
type slot struct {
	kind    uint8
	dst     uint8
	src     uint8
	size    uint8      // access width in bytes for uLoad/uStore*/uXadd
	aluop   asm.ALUOp  // for uALU*
	jumpop  asm.JumpOp // for uJmp*
	op      asm.OpCode // original opcode, kept for error reporting
	off     int16      // original wire offset (memory ops, errors)
	target  int32      // absolute taken-branch target (uJa/uJmp*/uLdImm64)
	imm     int64      // full 64-bit constant for lddw; helper id for call
	operand uint64     // pre-sign-extended immediate operand
}

// MapResolver turns the map name of an LD_IMM64 pseudo-load into the
// 64-bit handle value the program receives (a tagged pointer to the
// map's handle region).
type MapResolver func(name string) (uint64, error)

// Executable is a program prepared for execution: decoded into wire
// slots. jit records whether the simulated CPU has a JIT for it: the
// cost model charges such programs less model time per instruction
// (CostModel.BPFCost); this library executes both the same way.
type Executable struct {
	slots []slot
	jit   bool
}

// NewExecutable prepares assembled instructions for execution.
// Symbolic jump references must already be resolved (asm.Assemble);
// map pseudo-loads are resolved through resolve, which may be nil if
// the program contains none.
func NewExecutable(insns asm.Instructions, resolve MapResolver, jit bool) (*Executable, error) {
	slots, err := expand(insns, resolve)
	if err != nil {
		return nil, err
	}
	return &Executable{slots: slots, jit: jit}, nil
}

// JIT reports whether the simulated CPU runs the program JIT-compiled.
func (ex *Executable) JIT() bool { return ex.jit }

// Len returns the wire slot count.
func (ex *Executable) Len() int { return len(ex.slots) }

func expand(insns asm.Instructions, resolve MapResolver) ([]slot, error) {
	out := make([]slot, 0, len(insns)+4)
	for i, ins := range insns {
		if ins.Reference != "" {
			return nil, fmt.Errorf("vm: instruction %d has unresolved reference %q", i, ins.Reference)
		}
		s := slot{
			op:  ins.OpCode,
			dst: uint8(ins.Dst),
			src: uint8(ins.Src),
			off: ins.Offset,
			imm: ins.Constant,
		}
		if ins.IsLoadFromMap() {
			if resolve == nil {
				return nil, fmt.Errorf("vm: instruction %d loads map %q but no resolver given", i, ins.MapName)
			}
			handle, err := resolve(ins.MapName)
			if err != nil {
				return nil, fmt.Errorf("vm: instruction %d: %w", i, err)
			}
			s.imm = int64(handle)
			s.src = 0 // consumed; the engine sees a plain lddw
		}
		decode(&s, len(out))
		out = append(out, s)
		if ins.OpCode == asm.LoadImm64(0, 0).OpCode {
			out = append(out, slot{kind: uPad})
		}
	}
	return out, nil
}

// decode resolves the opcode of s (at slot index pc) into a micro-op.
// Invalid encodings become uBad and fault at execution time.
func decode(s *slot, pc int) {
	op := s.op
	s.operand = uint64(int64(int32(s.imm))) // sign-extend once
	s.target = int32(pc + 1 + int(s.off))

	switch class := op.Class(); class {
	case asm.ClassALU64, asm.ClassALU:
		wide := class == asm.ClassALU64
		s.aluop = op.ALUOp()
		switch s.aluop {
		case asm.Neg:
			if wide {
				s.kind = uNeg64
			} else {
				s.kind = uNeg32
			}
		case asm.Swap:
			s.kind = uSwap
			s.src = 0
			if op.Source() == asm.RegSource {
				s.src = 1 // to big-endian
			}
		default:
			switch {
			case wide && op.Source() == asm.RegSource:
				s.kind = uALU64Reg
			case wide:
				s.kind = uALU64Imm
			case op.Source() == asm.RegSource:
				s.kind = uALU32Reg
			default:
				s.kind = uALU32Imm
			}
		}

	case asm.ClassJump, asm.ClassJump32:
		wide := class == asm.ClassJump
		s.jumpop = op.JumpOp()
		switch s.jumpop {
		case asm.Exit:
			s.kind = uExit
		case asm.Call:
			s.kind = uCall
		case asm.Ja:
			s.kind = uJa
		default:
			switch {
			case wide && op.Source() == asm.RegSource:
				s.kind = uJmpReg
			case wide:
				s.kind = uJmpImm
			case op.Source() == asm.RegSource:
				s.kind = uJmp32Reg
			default:
				s.kind = uJmp32Imm
			}
		}

	case asm.ClassLdX:
		s.kind = uLoad
		s.size = uint8(op.Size().Bytes())

	case asm.ClassStX:
		s.size = uint8(op.Size().Bytes())
		if op.Mode() == asm.ModeXadd {
			s.kind = uXadd
		} else {
			s.kind = uStoreReg
		}

	case asm.ClassSt:
		s.kind = uStoreImm
		s.size = uint8(op.Size().Bytes())

	case asm.ClassLd:
		if op == asm.LoadImm64(0, 0).OpCode {
			s.kind = uLdImm64
			s.target = int32(pc + 2) // skip the pad slot
		} else {
			s.kind = uBad
		}

	default:
		s.kind = uBad
	}
}

// Machine is the mutable state of one or more executions. It is not
// safe for concurrent use; create one machine per goroutine.
type Machine struct {
	// Regs is the architectural register file.
	Regs [11]uint64
	// Mem is the address space. The stack segment is installed by
	// NewMachine; callers install ctx/packet segments per run.
	Mem *Memory
	// Helpers dispatches call instructions.
	Helpers *HelperTable
	// Executed counts instructions retired across runs; the
	// simulator's cost model reads it. Reset it at will.
	Executed uint64
	// HelperCalls counts helper invocations across runs (helpers run
	// native code, so the cost model charges them separately).
	HelperCalls uint64
	// MaxInstructions bounds one Run; 0 means DefaultMaxInstructions.
	MaxInstructions uint64
	// HelperContext carries the execution environment helpers need
	// (the packet being processed, the owning node, etc.). Typed as
	// any to keep the VM independent of upper layers.
	HelperContext any
	// HelperCounts, when non-nil, receives a per-helper-ID invocation
	// count alongside the aggregate HelperCalls counter. Attachments
	// point this at their own table to build helper histograms.
	HelperCounts *[MaxHelperID]uint64

	stack []byte
}

// NewMachine builds a machine with a fresh stack segment installed
// into mem.
func NewMachine(mem *Memory, helpers *HelperTable) *Machine {
	m := &Machine{
		Mem:     mem,
		Helpers: helpers,
		stack:   make([]byte, StackSize),
	}
	mem.SetSegment(RegionStack, &Segment{Data: m.stack, Writable: true})
	return m
}

// Stack exposes the stack buffer (tests use it).
func (m *Machine) Stack() []byte { return m.stack }

// resetForRun prepares registers for a fresh execution. R1 (the
// context argument) must be set by the caller after this.
func (m *Machine) resetForRun() {
	for i := range m.Regs {
		m.Regs[i] = 0
	}
	for i := range m.stack {
		m.stack[i] = 0
	}
	m.Regs[10] = Pointer(RegionStack, StackSize)
}

// Run executes ex with ctx in R1 and returns R0.
func (m *Machine) Run(ex *Executable, ctx uint64) (uint64, error) {
	m.resetForRun()
	m.Regs[1] = ctx
	return m.runInterp(ex)
}

func (m *Machine) budget() uint64 {
	if m.MaxInstructions != 0 {
		return m.MaxInstructions
	}
	return DefaultMaxInstructions
}

// callHelper dispatches a helper call and applies the kernel's
// register clobbering rules: r1-r5 become scratch, r0 receives the
// result.
func (m *Machine) callHelper(id int64) error {
	if id < 0 || id >= maxHelperID || m.Helpers == nil || m.Helpers[id] == nil {
		return fmt.Errorf("%w: id %d", ErrUnknownHelper, id)
	}
	m.HelperCalls++
	if m.HelperCounts != nil {
		m.HelperCounts[id]++
	}
	ret, err := m.Helpers[id](m, m.Regs[1], m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[5])
	if err != nil {
		return fmt.Errorf("vm: helper %d: %w", id, err)
	}
	m.Regs[0] = ret
	m.Regs[1], m.Regs[2], m.Regs[3], m.Regs[4], m.Regs[5] = 0, 0, 0, 0, 0
	return nil
}

// ALU semantics.

func swapBytes(v uint64, bits int64, toBE bool) uint64 {
	switch bits {
	case 16:
		x := uint16(v)
		if toBE {
			x = x<<8 | x>>8
		}
		return uint64(x)
	case 32:
		x := uint32(v)
		if toBE {
			x = x<<24 | x<<8&0x00ff0000 | x>>8&0x0000ff00 | x>>24
		}
		return uint64(x)
	case 64:
		if !toBE {
			return v
		}
		return v<<56 | v<<40&(0xff<<48) | v<<24&(0xff<<40) | v<<8&(0xff<<32) |
			v>>8&(0xff<<24) | v>>24&(0xff<<16) | v>>40&(0xff<<8) | v>>56
	default:
		return v
	}
}

// alu64 applies a 64-bit ALU op. Division and modulo by zero follow
// kernel semantics: DIV yields 0, MOD leaves dst unchanged.
func alu64(op asm.ALUOp, dst, src uint64) uint64 {
	switch op {
	case asm.Add:
		return dst + src
	case asm.Sub:
		return dst - src
	case asm.Mul:
		return dst * src
	case asm.Div:
		if src == 0 {
			return 0
		}
		return dst / src
	case asm.Or:
		return dst | src
	case asm.And:
		return dst & src
	case asm.LSh:
		return dst << (src & 63)
	case asm.RSh:
		return dst >> (src & 63)
	case asm.Mod:
		if src == 0 {
			return dst
		}
		return dst % src
	case asm.Xor:
		return dst ^ src
	case asm.Mov:
		return src
	case asm.ArSh:
		return uint64(int64(dst) >> (src & 63))
	default:
		return dst
	}
}

// alu32 applies a 32-bit ALU op with zero extension of the result.
func alu32(op asm.ALUOp, dst, src uint64) uint64 {
	d, s := uint32(dst), uint32(src)
	switch op {
	case asm.Add:
		return uint64(d + s)
	case asm.Sub:
		return uint64(d - s)
	case asm.Mul:
		return uint64(d * s)
	case asm.Div:
		if s == 0 {
			return 0
		}
		return uint64(d / s)
	case asm.Or:
		return uint64(d | s)
	case asm.And:
		return uint64(d & s)
	case asm.LSh:
		return uint64(d << (s & 31))
	case asm.RSh:
		return uint64(d >> (s & 31))
	case asm.Mod:
		if s == 0 {
			return uint64(d)
		}
		return uint64(d % s)
	case asm.Xor:
		return uint64(d ^ s)
	case asm.Mov:
		return uint64(s)
	case asm.ArSh:
		return uint64(uint32(int32(d) >> (s & 31)))
	default:
		return uint64(d)
	}
}

// jumpTaken evaluates a conditional jump predicate.
func jumpTaken(op asm.JumpOp, dst, src uint64, wide bool) bool {
	if !wide {
		dst, src = uint64(uint32(dst)), uint64(uint32(src))
	}
	switch op {
	case asm.JEq:
		return dst == src
	case asm.JNE:
		return dst != src
	case asm.JGT:
		return dst > src
	case asm.JGE:
		return dst >= src
	case asm.JLT:
		return dst < src
	case asm.JLE:
		return dst <= src
	case asm.JSet:
		return dst&src != 0
	case asm.JSGT, asm.JSGE, asm.JSLT, asm.JSLE:
		var a, b int64
		if wide {
			a, b = int64(dst), int64(src)
		} else {
			a, b = int64(int32(uint32(dst))), int64(int32(uint32(src)))
		}
		switch op {
		case asm.JSGT:
			return a > b
		case asm.JSGE:
			return a >= b
		case asm.JSLT:
			return a < b
		default:
			return a <= b
		}
	default:
		return false
	}
}
