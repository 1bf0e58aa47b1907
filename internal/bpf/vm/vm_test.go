package vm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"srv6bpf/internal/bpf/asm"
)

// run executes a program (assembling it first) on a fresh machine.
func run(t *testing.T, insns asm.Instructions, setup func(*Machine)) uint64 {
	t.Helper()
	asmd, err := insns.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ex, err := NewExecutable(asmd, nil, false)
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	m := NewMachine(NewMemory(), nil)
	if setup != nil {
		setup(m)
	}
	got, err := m.Run(ex, 0)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got
}

// runErr asserts the program faults and returns the error.
func runErr(t *testing.T, insns asm.Instructions) error {
	t.Helper()
	asmd, err := insns.Assemble()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	ex, err := NewExecutable(asmd, nil, false)
	if err != nil {
		t.Fatalf("executable: %v", err)
	}
	_, err = NewMachine(NewMemory(), nil).Run(ex, 0)
	if err == nil {
		t.Fatal("run unexpectedly succeeded")
	}
	return err
}

func TestALUBasics(t *testing.T) {
	cases := []struct {
		name string
		prog asm.Instructions
		want uint64
	}{
		{"mov imm", asm.Instructions{asm.Mov64Imm(asm.R0, 42), asm.Return()}, 42},
		{"mov negative sign-extends", asm.Instructions{asm.Mov64Imm(asm.R0, -1), asm.Return()}, ^uint64(0)},
		{"mov32 zero-extends", asm.Instructions{asm.Mov64Imm(asm.R0, -1), asm.Mov32Imm(asm.R0, -1), asm.Return()}, 0xffffffff},
		{"add", asm.Instructions{asm.Mov64Imm(asm.R0, 40), asm.ALU64Imm(asm.Add, asm.R0, 2), asm.Return()}, 42},
		{"add32 wraps", asm.Instructions{asm.LoadImm64(asm.R0, 0xffffffff), asm.ALU32Imm(asm.Add, asm.R0, 1), asm.Return()}, 0},
		{"sub reg", asm.Instructions{
			asm.Mov64Imm(asm.R0, 10), asm.Mov64Imm(asm.R1, 4),
			asm.ALU64Reg(asm.Sub, asm.R0, asm.R1), asm.Return()}, 6},
		{"mul", asm.Instructions{asm.Mov64Imm(asm.R0, 6), asm.ALU64Imm(asm.Mul, asm.R0, 7), asm.Return()}, 42},
		{"div", asm.Instructions{asm.Mov64Imm(asm.R0, 85), asm.ALU64Imm(asm.Div, asm.R0, 2), asm.Return()}, 42},
		{"div by zero yields zero", asm.Instructions{
			asm.Mov64Imm(asm.R0, 85), asm.Mov64Imm(asm.R1, 0),
			asm.ALU64Reg(asm.Div, asm.R0, asm.R1), asm.Return()}, 0},
		{"mod by zero keeps dst", asm.Instructions{
			asm.Mov64Imm(asm.R0, 85), asm.Mov64Imm(asm.R1, 0),
			asm.ALU64Reg(asm.Mod, asm.R0, asm.R1), asm.Return()}, 85},
		{"mod", asm.Instructions{asm.Mov64Imm(asm.R0, 85), asm.ALU64Imm(asm.Mod, asm.R0, 43), asm.Return()}, 42},
		{"neg", asm.Instructions{asm.Mov64Imm(asm.R0, -42), asm.Neg64(asm.R0), asm.Return()}, 42},
		{"lsh/rsh", asm.Instructions{
			asm.Mov64Imm(asm.R0, 21), asm.ALU64Imm(asm.LSh, asm.R0, 4),
			asm.ALU64Imm(asm.RSh, asm.R0, 3), asm.Return()}, 42},
		{"arsh keeps sign", asm.Instructions{
			asm.Mov64Imm(asm.R0, -84), asm.ALU64Imm(asm.ArSh, asm.R0, 1), asm.Return()}, ^uint64(0) - 41},
		{"shift masks to 63", asm.Instructions{
			asm.Mov64Imm(asm.R0, 42), asm.ALU64Imm(asm.LSh, asm.R0, 64), asm.Return()}, 42},
		{"xor and or", asm.Instructions{
			asm.Mov64Imm(asm.R0, 0xf0), asm.ALU64Imm(asm.Xor, asm.R0, 0xff),
			asm.ALU64Imm(asm.And, asm.R0, 0x0e), asm.ALU64Imm(asm.Or, asm.R0, 0x20), asm.Return()}, 0x2e},
		{"lddw", asm.Instructions{asm.LoadImm64(asm.R0, 0x0123456789abcdef), asm.Return()}, 0x0123456789abcdef},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.prog, nil); got != tc.want {
				t.Errorf("got %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestByteSwap(t *testing.T) {
	cases := []struct {
		name string
		prog asm.Instructions
		want uint64
	}{
		{"be16", asm.Instructions{
			asm.LoadImm64(asm.R0, 0x11223344aabb), asm.HostToBE(asm.R0, 16), asm.Return()}, 0xbbaa},
		{"be32", asm.Instructions{
			asm.LoadImm64(asm.R0, 0x1122334455667788), asm.HostToBE(asm.R0, 32), asm.Return()}, 0x88776655},
		{"be64", asm.Instructions{
			asm.LoadImm64(asm.R0, 0x1122334455667788), asm.HostToBE(asm.R0, 64), asm.Return()}, 0x8877665544332211},
		{"le16 truncates", asm.Instructions{
			asm.LoadImm64(asm.R0, 0x11223344aabb), asm.HostToLE(asm.R0, 16), asm.Return()}, 0xaabb},
		{"le64 identity", asm.Instructions{
			asm.LoadImm64(asm.R0, 0x1122334455667788), asm.HostToLE(asm.R0, 64), asm.Return()}, 0x1122334455667788},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := run(t, tc.prog, nil); got != tc.want {
				t.Errorf("got %#x, want %#x", got, tc.want)
			}
		})
	}
}

func TestJumps(t *testing.T) {
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R1, 5),
		asm.Mov64Imm(asm.R0, 0),
		asm.JumpImm(asm.JEq, asm.R1, 5, "hit"),
		asm.Mov64Imm(asm.R0, 1), // skipped
		asm.Return(),
		asm.Mov64Imm(asm.R0, 2).WithSymbol("hit"),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 2 {
		t.Errorf("got %d, want 2", got)
	}

	// Signed comparison: -1 s< 0 but not unsigned-less.
	prog = asm.Instructions{
		asm.Mov64Imm(asm.R1, -1),
		asm.Mov64Imm(asm.R0, 0),
		asm.JumpImm(asm.JSLT, asm.R1, 0, "signed"),
		asm.Return(),
		asm.Mov64Imm(asm.R0, 1).WithSymbol("signed"),
		asm.JumpImm(asm.JLT, asm.R1, 0, "unsigned"), // never taken
		asm.Return(),
		asm.Mov64Imm(asm.R0, 99).WithSymbol("unsigned"),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 1 {
		t.Errorf("signed/unsigned: got %d, want 1", got)
	}

	// JMP32 compares the low halves only.
	prog = asm.Instructions{
		asm.LoadImm64(asm.R1, -4294967291), // 0xffffffff00000005 as int64
		asm.Mov64Imm(asm.R0, 0),
		asm.Jump32Imm(asm.JEq, asm.R1, 5, "hit32"),
		asm.Return(),
		asm.Mov64Imm(asm.R0, 7).WithSymbol("hit32"),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 7 {
		t.Errorf("jmp32: got %d, want 7", got)
	}

	// JSet.
	prog = asm.Instructions{
		asm.Mov64Imm(asm.R1, 0b1010),
		asm.Mov64Imm(asm.R0, 0),
		asm.JumpImm(asm.JSet, asm.R1, 0b0010, "set"),
		asm.Return(),
		asm.Mov64Imm(asm.R0, 3).WithSymbol("set"),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 3 {
		t.Errorf("jset: got %d, want 3", got)
	}
}

func TestStackAccess(t *testing.T) {
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R1, 0x1234),
		asm.StoreMem(asm.RFP, -8, asm.R1, asm.DWord),
		asm.LoadMem(asm.R0, asm.RFP, -8, asm.DWord),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 0x1234 {
		t.Errorf("got %#x", got)
	}

	// Byte-granular access and store-immediate.
	prog = asm.Instructions{
		asm.StoreImm(asm.RFP, -2, 0xab, asm.Byte),
		asm.StoreImm(asm.RFP, -1, 0xcd, asm.Byte),
		asm.LoadMem(asm.R0, asm.RFP, -2, asm.Half),
		asm.Return(),
	}
	// Little-endian: byte at -2 is LSB.
	if got := run(t, prog, nil); got != 0xcdab {
		t.Errorf("got %#x, want 0xcdab", got)
	}
}

func TestAtomicAdd(t *testing.T) {
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R1, 40),
		asm.StoreMem(asm.RFP, -8, asm.R1, asm.DWord),
		asm.Mov64Imm(asm.R2, 2),
		asm.AtomicAdd(asm.RFP, -8, asm.R2, asm.DWord),
		asm.LoadMem(asm.R0, asm.RFP, -8, asm.DWord),
		asm.Return(),
	}
	if got := run(t, prog, nil); got != 42 {
		t.Errorf("got %d", got)
	}
}

func TestMemoryFaults(t *testing.T) {
	t.Run("stack overflow", func(t *testing.T) {
		prog := asm.Instructions{
			asm.LoadMem(asm.R0, asm.RFP, -(StackSize + 8), asm.DWord),
			asm.Return(),
		}
		var f *Fault
		if err := runErr(t, prog); !errors.As(err, &f) {
			t.Errorf("want Fault, got %v", err)
		}
	})
	t.Run("stack underflow (above fp)", func(t *testing.T) {
		prog := asm.Instructions{
			asm.LoadMem(asm.R0, asm.RFP, 8, asm.DWord),
			asm.Return(),
		}
		runErr(t, prog)
	})
	t.Run("null deref", func(t *testing.T) {
		prog := asm.Instructions{
			asm.Mov64Imm(asm.R1, 0),
			asm.LoadMem(asm.R0, asm.R1, 0, asm.DWord),
			asm.Return(),
		}
		var f *Fault
		if err := runErr(t, prog); !errors.As(err, &f) {
			t.Fatalf("want Fault, got %v", err)
		}
	})
	t.Run("write to read-only region", func(t *testing.T) {
		asmd, _ := asm.Instructions{
			asm.StoreImm(asm.R1, 0, 1, asm.Byte),
			asm.Mov64Imm(asm.R0, 0),
			asm.Return(),
		}.Assemble()
		ex, err := NewExecutable(asmd, nil, false)
		if err != nil {
			t.Fatal(err)
		}
		mem := NewMemory()
		ro := mem.AddSegment(&Segment{Data: make([]byte, 16)})
		m := NewMachine(mem, nil)
		_, err = m.Run(ex, Pointer(ro, 0))
		var f *Fault
		if !errors.As(err, &f) || !f.Write {
			t.Fatalf("want write fault, got %v", err)
		}
	})
}

func TestFellOffEnd(t *testing.T) {
	// No exit instruction: the interpreter must fail cleanly.
	asmd, _ := asm.Instructions{asm.Mov64Imm(asm.R0, 1)}.Assemble()
	ex, err := NewExecutable(asmd, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NewMemory(), nil)
	if _, err := m.Run(ex, 0); !errors.Is(err, ErrFellOff) {
		t.Fatalf("got %v", err)
	}
}

func TestInfiniteLoopHitsBudget(t *testing.T) {
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R0, 0).WithSymbol("top"),
		asm.JumpTo("top"),
	}
	asmd, _ := prog.Assemble()
	ex, err := NewExecutable(asmd, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NewMemory(), nil)
	m.MaxInstructions = 1000
	if _, err := m.Run(ex, 0); !errors.Is(err, ErrMaxInstructions) {
		t.Fatalf("got %v", err)
	}
}

func TestHelperCall(t *testing.T) {
	var table HelperTable
	table[7] = func(m *Machine, r1, r2, r3, r4, r5 uint64) (uint64, error) {
		return r1 + r2 + r3 + r4 + r5, nil
	}
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R1, 1),
		asm.Mov64Imm(asm.R2, 2),
		asm.Mov64Imm(asm.R3, 3),
		asm.Mov64Imm(asm.R4, 4),
		asm.Mov64Imm(asm.R5, 5),
		asm.Mov64Imm(asm.R6, 100),
		asm.CallHelper(7),
		// r6 must survive, r0 = 15; scratch regs are zeroed.
		asm.ALU64Reg(asm.Add, asm.R0, asm.R6),
		asm.ALU64Reg(asm.Add, asm.R0, asm.R1), // r1 == 0 now
		asm.Return(),
	}
	asmd, _ := prog.Assemble()
	ex, err := NewExecutable(asmd, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NewMemory(), &table)
	got, err := m.Run(ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != 115 {
		t.Errorf("got %d, want 115", got)
	}
}

func TestUnknownHelper(t *testing.T) {
	prog := asm.Instructions{asm.CallHelper(99), asm.Return()}
	if err := runErr(t, prog); !errors.Is(err, ErrUnknownHelper) {
		t.Fatalf("got %v", err)
	}
}

func TestJumpIntoLddwPad(t *testing.T) {
	// Hand-craft a jump into the second slot of an lddw.
	insns := asm.Instructions{
		{OpCode: asm.MkJump(asm.ClassJump, asm.Ja, asm.ImmSource), Offset: 1}, // to slot 2 = pad
		asm.LoadImm64(asm.R0, 1), // slots 1,2
		asm.Return(),
	}
	ex, err := NewExecutable(insns, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NewMemory(), nil)
	if _, err := m.Run(ex, 0); !errors.Is(err, ErrBadJumpTarget) {
		t.Fatalf("got %v", err)
	}
}

func TestMapResolver(t *testing.T) {
	insns := asm.Instructions{
		asm.LoadMapPtr(asm.R0, "m1"),
		asm.Return(),
	}
	want := Pointer(RegionDynamicBase, 0)
	ex, err := NewExecutable(insns, func(name string) (uint64, error) {
		if name != "m1" {
			t.Errorf("resolver got %q", name)
		}
		return want, nil
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(NewMemory(), nil)
	got, err := m.Run(ex, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("map handle = %#x, want %#x", got, want)
	}

	// Missing resolver is a load-time error.
	if _, err := NewExecutable(insns, nil, false); err == nil {
		t.Fatal("expected error without resolver")
	}
}

func TestExecutedAccounting(t *testing.T) {
	prog := asm.Instructions{
		asm.Mov64Imm(asm.R0, 0),
		asm.ALU64Imm(asm.Add, asm.R0, 1),
		asm.ALU64Imm(asm.Add, asm.R0, 1),
		asm.Return(),
	}
	asmd, _ := prog.Assemble()
	ex, _ := NewExecutable(asmd, nil, false)
	m := NewMachine(NewMemory(), nil)
	if _, err := m.Run(ex, 0); err != nil {
		t.Fatal(err)
	}
	if m.Executed != 4 {
		t.Errorf("Executed = %d, want 4", m.Executed)
	}
}

func TestCtxArgumentDelivery(t *testing.T) {
	asmd, _ := asm.Instructions{
		asm.LoadMem(asm.R0, asm.R1, 4, asm.Word),
		asm.Return(),
	}.Assemble()
	mem := NewMemory()
	ctx := make([]byte, 16)
	ctx[4], ctx[5] = 0xdd, 0x86 // little-endian 0x86dd
	mem.SetSegment(RegionCtx, &Segment{Data: ctx})
	ex, _ := NewExecutable(asmd, nil, false)
	m := NewMachine(mem, nil)
	got, err := m.Run(ex, Pointer(RegionCtx, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got != 0x86dd {
		t.Errorf("ctx read = %#x", got)
	}
}

// genStraightLine builds a random but guaranteed-terminating program:
// registers are initialized, then a body of ALU ops, stack accesses
// and forward-only conditional jumps, ending in exit.
func genStraightLine(r *rand.Rand, bodyLen int) asm.Instructions {
	var prog asm.Instructions
	for reg := asm.R0; reg <= asm.R9; reg++ {
		prog = append(prog, asm.LoadImm64(reg, int64(r.Uint64())))
	}
	aluOps := []asm.ALUOp{asm.Add, asm.Sub, asm.Mul, asm.Div, asm.Or, asm.And,
		asm.LSh, asm.RSh, asm.Mod, asm.Xor, asm.Mov, asm.ArSh}
	sizes := []asm.Size{asm.Byte, asm.Half, asm.Word, asm.DWord}
	for i := 0; i < bodyLen; i++ {
		dst := asm.Register(r.Intn(10))
		src := asm.Register(r.Intn(10))
		switch r.Intn(10) {
		case 0, 1, 2:
			prog = append(prog, asm.ALU64Reg(aluOps[r.Intn(len(aluOps))], dst, src))
		case 3, 4:
			prog = append(prog, asm.ALU32Imm(aluOps[r.Intn(len(aluOps))], dst, int32(r.Uint32())))
		case 5:
			prog = append(prog, asm.ALU64Imm(aluOps[r.Intn(len(aluOps))], dst, int32(r.Uint32())))
		case 6:
			off := int16(-8 * (1 + r.Intn(8)))
			prog = append(prog, asm.StoreMem(asm.RFP, off, src, asm.DWord))
		case 7:
			off := int16(-8 * (1 + r.Intn(8)))
			prog = append(prog, asm.LoadMem(dst, asm.RFP, off, sizes[r.Intn(4)]))
		case 8:
			bits := []int{16, 32, 64}[r.Intn(3)]
			if r.Intn(2) == 0 {
				prog = append(prog, asm.HostToBE(dst, bits))
			} else {
				prog = append(prog, asm.HostToLE(dst, bits))
			}
		case 9:
			// Forward jump over the next instruction (if any room).
			prog = append(prog, asm.Instruction{
				OpCode: asm.MkJump(asm.ClassJump, asm.JEq, asm.ImmSource),
				Dst:    dst, Constant: int64(int32(r.Uint32())), Offset: 1,
			})
			prog = append(prog, asm.ALU64Imm(asm.Add, src, 1))
		}
	}
	prog = append(prog, asm.Return())
	return prog
}

// TestRandomProgramsRepeat runs random programs (no panic) and requires
// a re-run on the same machine to return the same r0, error or not, and
// retire the same number of instructions: nothing leaks from one
// execution into the next.
func TestRandomProgramsRepeat(t *testing.T) {
	f := func(seed int64) bool {
		prog := genStraightLine(rand.New(rand.NewSource(seed)), 40)
		ex, err := NewExecutable(prog, nil, false)
		if err != nil {
			return false
		}
		m := NewMachine(NewMemory(), nil)
		ret1, err1 := m.Run(ex, 0)
		executed := m.Executed
		ret2, err2 := m.Run(ex, 0)
		return ret1 == ret2 && (err1 == nil) == (err2 == nil) && m.Executed == 2*executed
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkRun times an ALU-heavy straight-line body.
func BenchmarkRun(b *testing.B) {
	ex, err := NewExecutable(genStraightLine(rand.New(rand.NewSource(1)), 60), nil, false)
	if err != nil {
		b.Fatal(err)
	}
	m := NewMachine(NewMemory(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Run(ex, 0); err != nil {
			b.Fatal(err)
		}
	}
}
