package vm_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"srv6bpf/internal/bpf/asm"
	"srv6bpf/internal/bpf/verifier"
	"srv6bpf/internal/bpf/vm"
)

// TestVerifierSoundnessSmoke generates random programs; every program
// the verifier ACCEPTS must execute without a memory
// fault or invalid opcode (budget exhaustion cannot happen: the
// verifier rejects loops). This ties the two halves of the safety
// story together.
func TestVerifierSoundnessSmoke(t *testing.T) {
	cfg := verifier.Config{CtxSize: 64}

	gen := func(r *rand.Rand) asm.Instructions {
		var p asm.Instructions
		// Random init of a few registers.
		for reg := asm.R0; reg <= asm.R5; reg++ {
			p = append(p, asm.LoadImm64(reg, int64(r.Uint64())))
		}
		n := 5 + r.Intn(30)
		aluOps := []asm.ALUOp{asm.Add, asm.Sub, asm.Mul, asm.Div, asm.Or,
			asm.And, asm.LSh, asm.RSh, asm.Mod, asm.Xor, asm.Mov, asm.ArSh}
		for i := 0; i < n; i++ {
			dst := asm.Register(r.Intn(6))
			src := asm.Register(r.Intn(6))
			switch r.Intn(8) {
			case 0, 1, 2:
				p = append(p, asm.ALU64Reg(aluOps[r.Intn(len(aluOps))], dst, src))
			case 3:
				p = append(p, asm.ALU32Imm(aluOps[r.Intn(len(aluOps))], dst, int32(r.Uint32())))
			case 4:
				// Stack traffic, mostly valid, occasionally wild — the
				// verifier decides acceptance either way.
				off := int16(-8 * (1 + r.Intn(64)))
				if r.Intn(10) == 0 {
					off = int16(r.Intn(1040)) - 520
				}
				p = append(p, asm.StoreMem(asm.RFP, off, src, asm.DWord))
			case 5:
				off := int16(-8 * (1 + r.Intn(64)))
				if r.Intn(10) == 0 {
					off = int16(r.Intn(1040)) - 520
				}
				p = append(p, asm.LoadMem(dst, asm.RFP, off, asm.Byte))
			case 6:
				// Ctx access, mostly in bounds, occasionally beyond.
				off := int16(4 * r.Intn(15))
				if r.Intn(10) == 0 {
					off = int16(r.Intn(96)) - 8
				}
				p = append(p, asm.LoadMem(dst, asm.R1, off, asm.Word))
			case 7:
				p = append(p, asm.Instruction{
					OpCode: asm.MkJump(asm.ClassJump, asm.JGT, asm.ImmSource),
					Dst:    dst, Constant: int64(int32(r.Uint32())), Offset: 1,
				}, asm.ALU64Imm(asm.Add, src, 1))
			}
		}
		p = append(p, asm.Mov64Imm(asm.R0, 0), asm.Return())
		return p
	}

	accepted, rejected := 0, 0
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		prog := gen(r)
		// R1 holds the ctx on entry; the generator may clobber it with
		// LoadImm64 — skip the R1 init to keep ctx usable.
		prog = append(prog[:1], prog[2:]...)

		if err := verifier.Verify(prog, cfg); err != nil {
			rejected++
			return true // rejection is fine
		}
		accepted++
		ex, err := vm.NewExecutable(prog, nil, false)
		if err != nil {
			return false
		}
		mem := vm.NewMemory()
		mem.SetSegment(vm.RegionCtx, &vm.Segment{Data: make([]byte, 64)})
		m := vm.NewMachine(mem, nil)
		if _, err := m.Run(ex, vm.Pointer(vm.RegionCtx, 0)); err != nil {
			var fault *vm.Fault
			if errors.As(err, &fault) {
				t.Logf("verified program faulted: %v\n%s", err, prog)
			}
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
	if accepted == 0 {
		t.Fatal("generator produced no verifier-accepted programs; test is vacuous")
	}
	t.Logf("accepted=%d rejected=%d", accepted, rejected)
}
