package arm

import (
	"errors"
	"strings"
	"testing"
)

// ram is a flat test memory; every access costs 1 cycle.
type ram struct {
	data []byte
}

func newRAM(size int) *ram { return &ram{data: make([]byte, size)} }

func (m *ram) Read(addr uint32, size uint8, fetch bool) (uint32, int, error) {
	if int(addr)+int(size) > len(m.data) {
		return 0, 0, errors.New("read out of range")
	}
	var v uint32
	for i := uint8(0); i < size; i++ {
		v |= uint32(m.data[addr+uint32(i)]) << (8 * i)
	}
	return v, 1, nil
}

func (m *ram) Write(addr uint32, size uint8, val uint32) (int, error) {
	if int(addr)+int(size) > len(m.data) {
		return 0, errors.New("write out of range")
	}
	for i := uint8(0); i < size; i++ {
		m.data[addr+uint32(i)] = byte(val >> (8 * i))
	}
	return 1, nil
}

func (m *ram) writeCode(addr uint32, prog []Instr) {
	for i, in := range prog {
		hw := MustEncode(in)
		m.data[addr+uint32(2*i)] = byte(hw)
		m.data[addr+uint32(2*i)+1] = byte(hw >> 8)
	}
}

// run executes prog (placed at 0x100) until SWI 0 and returns the CPU.
func run(t *testing.T, prog []Instr) *CPU {
	t.Helper()
	m := newRAM(0x10000)
	m.writeCode(0x100, prog)
	c := NewCPU(m, 0x100, 0xFF00)
	if err := c.Run(100000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return c
}

func exit() Instr { return Instr{Op: OpSwi, Imm: 0} }

func TestMovAddSub(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 200},
		{Op: OpMovImm, Rd: 1, Imm: 100},
		{Op: OpAddReg, Rd: 2, Rs: 0, Rn: 1}, // r2 = 300
		{Op: OpSubImm8, Rd: 2, Imm: 44},     // r2 = 256
		{Op: OpAddImm3, Rd: 3, Rs: 2, Imm: 7},
		exit(),
	})
	if c.R[2] != 256 || c.R[3] != 263 {
		t.Fatalf("r2=%d r3=%d, want 256, 263", c.R[2], c.R[3])
	}
}

func TestSubFlagsAndOverflow(t *testing.T) {
	// 0 - 1: N set, C clear (borrow), V clear.
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpSubImm8, Rd: 0, Imm: 1},
		exit(),
	})
	if c.R[0] != 0xFFFFFFFF || !c.N || c.Z || c.C || c.V {
		t.Fatalf("0-1: r0=%#x N=%v Z=%v C=%v V=%v", c.R[0], c.N, c.Z, c.C, c.V)
	}

	// INT_MIN - 1 overflows: V set.
	c = run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 1},
		{Op: OpLslImm, Rd: 0, Rs: 0, Imm: 31}, // r0 = 0x80000000
		{Op: OpMovImm, Rd: 1, Imm: 1},
		{Op: OpSubReg, Rd: 0, Rs: 0, Rn: 1},
		exit(),
	})
	if c.R[0] != 0x7FFFFFFF || !c.V || !c.C {
		t.Fatalf("INT_MIN-1: r0=%#x C=%v V=%v", c.R[0], c.C, c.V)
	}
}

func TestAdcSbcChain(t *testing.T) {
	// 64-bit add: (0xFFFFFFFF, 1) + (1, 0) = (0, 2) — lo add sets carry.
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpMvn, Rd: 0, Rs: 0},     // r0 = 0xFFFFFFFF (lo a)
		{Op: OpMovImm, Rd: 1, Imm: 1}, // hi a
		{Op: OpMovImm, Rd: 2, Imm: 1}, // lo b
		{Op: OpMovImm, Rd: 3, Imm: 0}, // hi b
		{Op: OpAddReg, Rd: 0, Rs: 0, Rn: 2},
		{Op: OpAdc, Rd: 1, Rs: 3},
		exit(),
	})
	if c.R[0] != 0 || c.R[1] != 2 {
		t.Fatalf("64-bit add: lo=%#x hi=%#x, want 0, 2", c.R[0], c.R[1])
	}
}

func TestShiftEdgeCases(t *testing.T) {
	// LSR by register with amount 32: result 0, C = bit31.
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 1},
		{Op: OpLslImm, Rd: 0, Rs: 0, Imm: 31}, // r0 = 0x80000000
		{Op: OpMovImm, Rd: 1, Imm: 32},
		{Op: OpLsrReg, Rd: 0, Rs: 1},
		exit(),
	})
	if c.R[0] != 0 || !c.C || !c.Z {
		t.Fatalf("lsr #32: r0=%#x C=%v Z=%v", c.R[0], c.C, c.Z)
	}

	// ASR immediate #0 means #32: sign fill.
	c = run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 1},
		{Op: OpLslImm, Rd: 0, Rs: 0, Imm: 31},
		{Op: OpAsrImm, Rd: 0, Rs: 0, Imm: 0},
		exit(),
	})
	if c.R[0] != 0xFFFFFFFF {
		t.Fatalf("asr #32 of 0x80000000 = %#x, want all ones", c.R[0])
	}

	// ROR by 8.
	c = run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0xAB},
		{Op: OpMovImm, Rd: 1, Imm: 8},
		{Op: OpRor, Rd: 0, Rs: 1},
		exit(),
	})
	if c.R[0] != 0xAB000000 {
		t.Fatalf("ror 8: r0=%#x, want 0xAB000000", c.R[0])
	}
}

func TestMulAndLogic(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 7},
		{Op: OpMovImm, Rd: 1, Imm: 6},
		{Op: OpMul, Rd: 0, Rs: 1}, // 42
		{Op: OpMovImm, Rd: 2, Imm: 0x0F},
		{Op: OpAnd, Rd: 2, Rs: 0}, // 42 & 15 = 10
		{Op: OpMovImm, Rd: 3, Imm: 5},
		{Op: OpOrr, Rd: 3, Rs: 2}, // 15
		{Op: OpEor, Rd: 3, Rs: 2}, // 5
		{Op: OpMovImm, Rd: 4, Imm: 0xFF},
		{Op: OpBic, Rd: 4, Rs: 2}, // 0xFF &^ 10 = 0xF5
		{Op: OpNeg, Rd: 5, Rs: 1}, // -6
		exit(),
	})
	if c.R[0] != 42 || c.R[2] != 10 || c.R[3] != 5 || c.R[4] != 0xF5 || int32(c.R[5]) != -6 {
		t.Fatalf("r0=%d r2=%d r3=%d r4=%#x r5=%d", c.R[0], c.R[2], c.R[3], c.R[4], int32(c.R[5]))
	}
}

func TestLoadStoreWidths(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0x80}, // base address 0x80
		{Op: OpMovImm, Rd: 0, Imm: 0xFE},
		{Op: OpStrbImm, Rd: 0, Rs: 1, Imm: 0}, // byte 0xFE
		{Op: OpMovImm, Rd: 0, Imm: 0xAB},
		{Op: OpLslImm, Rd: 0, Rs: 0, Imm: 8},  // 0xAB00
		{Op: OpAddImm8, Rd: 0, Imm: 0xCD},     // 0xABCD
		{Op: OpStrhImm, Rd: 0, Rs: 1, Imm: 2}, // halfword at 0x82
		{Op: OpLdrbImm, Rd: 2, Rs: 1, Imm: 0}, // 0xFE zero-extended
		{Op: OpMovImm, Rd: 3, Imm: 0},
		{Op: OpLdsbReg, Rd: 4, Rs: 1, Rn: 3},  // 0xFE sign-extended = -2
		{Op: OpLdrhImm, Rd: 5, Rs: 1, Imm: 2}, // 0xABCD zero-extended
		{Op: OpMovImm, Rd: 6, Imm: 2},
		{Op: OpLdshReg, Rd: 6, Rs: 1, Rn: 6}, // sign-extended 0xFFFFABCD
		exit(),
	})
	if c.R[2] != 0xFE {
		t.Errorf("ldrb = %#x, want 0xFE", c.R[2])
	}
	if int32(c.R[4]) != -2 {
		t.Errorf("ldsb = %d, want -2", int32(c.R[4]))
	}
	if c.R[5] != 0xABCD {
		t.Errorf("ldrh = %#x, want 0xABCD", c.R[5])
	}
	if c.R[6] != 0xFFFFABCD {
		t.Errorf("ldsh = %#x, want 0xFFFFABCD", c.R[6])
	}
}

func TestWordLoadStoreAndSPRelative(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpAddSPImm, Imm: -8},
		{Op: OpMovImm, Rd: 0, Imm: 99},
		{Op: OpStrSP, Rd: 0, Imm: 4},
		{Op: OpLdrSP, Rd: 1, Imm: 4},
		{Op: OpAddSPRel, Rd: 2, Imm: 4}, // address of the slot
		{Op: OpMovImm, Rd: 3, Imm: 0},
		{Op: OpLdrReg, Rd: 3, Rs: 2, Rn: 3},
		{Op: OpAddSPImm, Imm: 8},
		exit(),
	})
	if c.R[1] != 99 || c.R[3] != 99 {
		t.Fatalf("sp-relative store/load: r1=%d r3=%d, want 99", c.R[1], c.R[3])
	}
	if c.R[SP] != 0xFF00 {
		t.Fatalf("sp not restored: %#x", c.R[SP])
	}
}

func TestPushPopCallReturn(t *testing.T) {
	// main: r0=5; bl addten; r1=r0; swi.  addten: push {lr}; add r0,#10; pop {pc}.
	// BL to a function 0x20 bytes ahead.
	m := newRAM(0x10000)
	main := []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 5},
	}
	m.writeCode(0x100, main)
	// BL: from instruction pair at 0x102/0x104 to target 0x120.
	// LR = pc+4 + (hi<<12); target = LR + lo<<1.
	// pc of prefix = 0x102, so pc+4 = 0x106. offset = 0x120-0x106 = 0x1A.
	m.writeCode(0x102, []Instr{{Op: OpBlHi, Imm: 0}, {Op: OpBlLo, Imm: 0x1A >> 1}})
	m.writeCode(0x106, []Instr{
		{Op: OpMovHi, Rd: 1, Rs: 0},
		exit(),
	})
	m.writeCode(0x120, []Instr{
		{Op: OpPush, Regs: 1 << LR},
		{Op: OpAddImm8, Rd: 0, Imm: 10},
		{Op: OpPop, Regs: 1 << PC},
	})
	c := NewCPU(m, 0x100, 0xFF00)
	if err := c.Run(1000); err != nil {
		t.Fatal(err)
	}
	if c.R[1] != 15 {
		t.Fatalf("call/return: r1=%d, want 15", c.R[1])
	}
	if c.R[SP] != 0xFF00 {
		t.Fatalf("sp leaked: %#x", c.R[SP])
	}
}

func TestPushPopMultiple(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 1},
		{Op: OpMovImm, Rd: 1, Imm: 2},
		{Op: OpMovImm, Rd: 2, Imm: 3},
		{Op: OpPush, Regs: 0b111},
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpMovImm, Rd: 1, Imm: 0},
		{Op: OpMovImm, Rd: 2, Imm: 0},
		{Op: OpPop, Regs: 0b111},
		exit(),
	})
	if c.R[0] != 1 || c.R[1] != 2 || c.R[2] != 3 {
		t.Fatalf("push/pop: r0=%d r1=%d r2=%d", c.R[0], c.R[1], c.R[2])
	}
}

func TestStmiaLdmia(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 4, Imm: 0x80},
		{Op: OpMovImm, Rd: 0, Imm: 11},
		{Op: OpMovImm, Rd: 1, Imm: 22},
		{Op: OpStmia, Rs: 4, Regs: 0b011},
		{Op: OpMovImm, Rd: 4, Imm: 0x80},
		{Op: OpLdmia, Rs: 4, Regs: 0b1100}, // r2=11, r3=22
		exit(),
	})
	if c.R[2] != 11 || c.R[3] != 22 {
		t.Fatalf("stm/ldm: r2=%d r3=%d", c.R[2], c.R[3])
	}
	if c.R[4] != 0x88 {
		t.Fatalf("ldmia writeback: r4=%#x, want 0x88", c.R[4])
	}
}

func TestConditionalBranches(t *testing.T) {
	// For each condition, set up flags with CMP and verify taken/not-taken.
	type tc struct {
		a, b uint32
		cond Cond
		take bool
	}
	cases := []tc{
		{5, 5, CondEQ, true}, {5, 6, CondEQ, false},
		{5, 6, CondNE, true}, {5, 5, CondNE, false},
		{6, 5, CondCS, true}, {4, 5, CondCC, true},
		{0, 1, CondMI, true}, {1, 0, CondPL, true},
		{6, 5, CondHI, true}, {5, 5, CondHI, false},
		{5, 5, CondLS, true}, {4, 5, CondLS, true},
		{5, 5, CondGE, true}, {4, 5, CondLT, true},
		{6, 5, CondGT, true}, {5, 5, CondGT, false},
		{5, 5, CondLE, true}, {6, 5, CondLE, false},
	}
	for _, c := range cases {
		// r0=a; r1=b; cmp r0,r1; b<cond> +2 (skip mov r2,#1); mov r2,#1; exit
		cpu := run(t, []Instr{
			{Op: OpMovImm, Rd: 0, Imm: int32(c.a)},
			{Op: OpMovImm, Rd: 1, Imm: int32(c.b)},
			{Op: OpMovImm, Rd: 2, Imm: 0},
			{Op: OpCmpReg, Rd: 0, Rs: 1},
			{Op: OpBCond, Cond: c.cond, Imm: 0}, // offset relative to PC+4: skips one instruction
			{Op: OpMovImm, Rd: 2, Imm: 1},
			exit(),
		})
		skipped := cpu.R[2] == 0
		if skipped != c.take {
			t.Errorf("cmp %d,%d b%s: taken=%v, want %v", c.a, c.b, c.cond, skipped, c.take)
		}
	}
}

func TestLoopCycleCount(t *testing.T) {
	// mov r0,#10 ; loop: sub r0,#1 ; bne loop ; swi 0
	// Fetch = 1 cycle each (test RAM). Taken branch adds 2.
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 10},
		{Op: OpSubImm8, Rd: 0, Imm: 1},
		{Op: OpBCond, Cond: CondNE, Imm: -6}, // back to the sub
		exit(),
	})
	// Instructions: 1 mov + 10 subs + 10 branches (9 taken) + 1 swi = 22.
	if c.Instrs != 22 {
		t.Fatalf("instrs = %d, want 22", c.Instrs)
	}
	// Cycles: 22 fetches + 9 taken-branch penalties (2) + swi (2) = 42.
	want := uint64(22 + 9*CyclesBranchTaken + CyclesSwi)
	if c.Cycles != want {
		t.Fatalf("cycles = %d, want %d", c.Cycles, want)
	}
}

func TestPCRelativeLoad(t *testing.T) {
	m := newRAM(0x10000)
	// 0x100: ldr r0, [pc, #0] → base (0x100+4)&^3 = 0x104 → loads word at 0x104.
	m.writeCode(0x100, []Instr{
		{Op: OpLdrPC, Rd: 0, Imm: 0},
		exit(),
	})
	// literal at 0x104
	m.data[0x104] = 0x78
	m.data[0x105] = 0x56
	m.data[0x106] = 0x34
	m.data[0x107] = 0x12
	c := NewCPU(m, 0x100, 0xFF00)
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.R[0] != 0x12345678 {
		t.Fatalf("pc-relative load: r0=%#x", c.R[0])
	}
}

func TestMisalignedAccessFaults(t *testing.T) {
	m := newRAM(0x1000)
	m.writeCode(0x100, []Instr{
		{Op: OpMovImm, Rd: 1, Imm: 0x81}, // odd address
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpLdrReg, Rd: 0, Rs: 1, Rn: 0},
	})
	c := NewCPU(m, 0x100, 0xF00)
	err := c.Run(10)
	if err == nil || !strings.Contains(err.Error(), "misaligned") {
		t.Fatalf("expected misaligned fault, got %v", err)
	}
	var ae *Err
	if !errors.As(err, &ae) {
		t.Fatalf("error should be *arm.Err, got %T", err)
	}
}

func TestBxToArmStateFaults(t *testing.T) {
	m := newRAM(0x1000)
	m.writeCode(0x100, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0x80}, // bit 0 clear → ARM state
		{Op: OpBx, Rs: 0},
	})
	c := NewCPU(m, 0x100, 0xF00)
	if err := c.Run(10); err == nil {
		t.Fatal("bx to ARM state should fault in this THUMB-only model")
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	m := newRAM(0x1000)
	m.writeCode(0x100, []Instr{{Op: OpB, Imm: -4}}) // infinite loop
	c := NewCPU(m, 0x100, 0xF00)
	if err := c.Run(50); err == nil {
		t.Fatal("expected budget exhaustion error")
	}
}

func TestHiRegisterOps(t *testing.T) {
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 42},
		{Op: OpMovHi, Rd: 10, Rs: 0},  // r10 = 42
		{Op: OpMovHi, Rd: 1, Rs: 10},  // r1 = 42
		{Op: OpAddHi, Rd: 10, Rs: 10}, // r10 = 84
		{Op: OpMovHi, Rd: 2, Rs: 10},
		exit(),
	})
	if c.R[1] != 42 || c.R[2] != 84 {
		t.Fatalf("hi regs: r1=%d r2=%d", c.R[1], c.R[2])
	}
}

func TestSWIHandlerHook(t *testing.T) {
	m := newRAM(0x1000)
	m.writeCode(0x100, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 7},
		{Op: OpSwi, Imm: 1},
		exit(),
	})
	var got uint32
	c := NewCPU(m, 0x100, 0xF00)
	def := c.SWI
	c.SWI = func(c *CPU, num uint8) error {
		if num == 1 {
			got = c.R[0]
			return nil
		}
		return def(c, num)
	}
	if err := c.Run(10); err != nil {
		t.Fatal(err)
	}
	if got != 7 {
		t.Fatalf("swi hook saw r0=%d, want 7", got)
	}
}

// TestDecodeMemoExact: for every halfword, the decode memo returns what
// Decode returns, whether the slot is empty, already holds that halfword,
// or holds a different halfword fetched at an address sharing the slot.
func TestDecodeMemoExact(t *testing.T) {
	c := NewCPU(newRAM(0), 0, 0)
	for i := 0; i < 1<<16; i++ {
		hw := uint16(i)
		addr := uint32(i) * 2 // each slot sees 32 distinct halfwords in turn
		want := Decode(hw)
		for pass := 0; pass < 2; pass++ { // a miss, then a hit
			if got := *c.decode(addr, hw); got != want {
				t.Fatalf("memo decode(%#x, %#04x) pass %d = %+v, want %+v", addr, hw, pass, got, want)
			}
		}
		alias := addr + 2*memoSize
		other := hw ^ 0x8000
		if got := *c.decode(alias, other); got != Decode(other) {
			t.Fatalf("memo decode(%#x, %#04x) after %#04x = %+v, want %+v", alias, other, hw, got, Decode(other))
		}
	}
}

// TestSelfModifyingCode: a program that overwrites an instruction it has
// already executed and branches back must execute the new instruction.
func TestSelfModifyingCode(t *testing.T) {
	patched := MustEncode(Instr{Op: OpAddImm8, Rd: 0, Imm: 100})
	c := run(t, []Instr{
		{Op: OpMovImm, Rd: 0, Imm: 0},
		{Op: OpMovImm, Rd: 2, Imm: 0},
		{Op: OpAddImm8, Rd: 0, Imm: 1}, // 0x104, patched to add r0, #100
		{Op: OpCmpImm, Rd: 2, Imm: 0},
		{Op: OpBCond, Cond: CondNE, Imm: 14}, // second pass: to the exit
		{Op: OpMovImm, Rd: 2, Imm: 1},
		{Op: OpMovImm, Rd: 3, Imm: int32(patched >> 8)},
		{Op: OpLslImm, Rd: 3, Rs: 3, Imm: 8},
		{Op: OpAddImm8, Rd: 3, Imm: int32(patched & 0xFF)},
		{Op: OpMovImm, Rd: 4, Imm: 0x82},
		{Op: OpLslImm, Rd: 4, Rs: 4, Imm: 1}, // r4 = 0x104
		{Op: OpStrhImm, Rd: 3, Rs: 4, Imm: 0},
		{Op: OpB, Imm: -24}, // back to 0x104
		exit(),
	})
	if c.R[0] != 101 {
		t.Fatalf("r0 = %d, want 101 (1 from the original add, 100 from the patched one)", c.R[0])
	}
}
