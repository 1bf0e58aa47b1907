package vm

import (
	"fmt"
)

// runInterp is the fetch-execute engine. Decoding happened once in
// expand: each slot is a flat micro-op, so one step is a single-byte
// dispatch plus the operation itself. Jump targets, pad slots and
// opcodes are checked as they are reached, so a program the verifier
// never saw faults with an error instead of escaping.
func (m *Machine) runInterp(ex *Executable) (uint64, error) {
	slots := ex.slots
	budget := m.budget()
	var steps uint64
	pc := 0

	for {
		if pc < 0 || pc >= len(slots) {
			m.Executed += steps
			return 0, ErrFellOff
		}
		s := &slots[pc]
		steps++
		if steps > budget {
			m.Executed += steps
			return 0, ErrMaxInstructions
		}

		switch s.kind {
		case uALU64Reg:
			m.Regs[s.dst] = alu64(s.aluop, m.Regs[s.dst], m.Regs[s.src])
			pc++
		case uALU64Imm:
			m.Regs[s.dst] = alu64(s.aluop, m.Regs[s.dst], s.operand)
			pc++
		case uALU32Reg:
			m.Regs[s.dst] = alu32(s.aluop, m.Regs[s.dst], m.Regs[s.src])
			pc++
		case uALU32Imm:
			m.Regs[s.dst] = alu32(s.aluop, m.Regs[s.dst], s.operand)
			pc++
		case uNeg64:
			m.Regs[s.dst] = -m.Regs[s.dst]
			pc++
		case uNeg32:
			m.Regs[s.dst] = uint64(-uint32(m.Regs[s.dst]))
			pc++
		case uSwap:
			m.Regs[s.dst] = swapBytes(m.Regs[s.dst], s.imm, s.src != 0)
			pc++

		case uExit:
			m.Executed += steps
			return m.Regs[0], nil
		case uCall:
			if err := m.callHelper(s.imm); err != nil {
				m.Executed += steps
				return 0, err
			}
			pc++
		case uJa:
			pc = int(s.target)
		case uJmpReg:
			if jumpTaken(s.jumpop, m.Regs[s.dst], m.Regs[s.src], true) {
				pc = int(s.target)
			} else {
				pc++
			}
		case uJmpImm:
			if jumpTaken(s.jumpop, m.Regs[s.dst], s.operand, true) {
				pc = int(s.target)
			} else {
				pc++
			}
		case uJmp32Reg:
			if jumpTaken(s.jumpop, m.Regs[s.dst], m.Regs[s.src], false) {
				pc = int(s.target)
			} else {
				pc++
			}
		case uJmp32Imm:
			if jumpTaken(s.jumpop, m.Regs[s.dst], s.operand, false) {
				pc = int(s.target)
			} else {
				pc++
			}

		case uLoad:
			v, err := m.Mem.Load(m.Regs[s.src]+uint64(int64(s.off)), int(s.size))
			if err != nil {
				m.Executed += steps
				return 0, err
			}
			m.Regs[s.dst] = v
			pc++

		case uStoreReg:
			if err := m.Mem.Store(m.Regs[s.dst]+uint64(int64(s.off)), int(s.size), m.Regs[s.src]); err != nil {
				m.Executed += steps
				return 0, err
			}
			pc++

		case uStoreImm:
			if err := m.Mem.Store(m.Regs[s.dst]+uint64(int64(s.off)), int(s.size), s.operand); err != nil {
				m.Executed += steps
				return 0, err
			}
			pc++

		case uXadd:
			if s.size != 4 && s.size != 8 {
				m.Executed += steps
				return 0, fmt.Errorf("%w: atomic add size %d", ErrBadOpcode, s.size)
			}
			addr := m.Regs[s.dst] + uint64(int64(s.off))
			cur, err := m.Mem.Load(addr, int(s.size))
			if err != nil {
				m.Executed += steps
				return 0, err
			}
			if err := m.Mem.Store(addr, int(s.size), cur+m.Regs[s.src]); err != nil {
				m.Executed += steps
				return 0, err
			}
			pc++

		case uLdImm64:
			m.Regs[s.dst] = uint64(s.imm)
			pc = int(s.target)

		case uPad:
			m.Executed += steps
			return 0, ErrBadJumpTarget

		default: // uBad
			m.Executed += steps
			return 0, fmt.Errorf("%w: %#02x", ErrBadOpcode, uint8(s.op))
		}
	}
}
