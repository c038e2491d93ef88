package xs1

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestAssembleBasic(t *testing.T) {
	p, err := Assemble(`
		ldc  r0, 42
		add  r1, r0, r0
		tend
	`)
	if err != nil {
		t.Fatal(err)
	}
	// ldc = 2 words, add = 1, tend = 1.
	if len(p.Words) != 4 {
		t.Fatalf("len(Words) = %d, want 4", len(p.Words))
	}
}

func TestAssembleLabelsAndBranches(t *testing.T) {
	p, err := Assemble(`
	start:
		ldc  r0, 3
	loop:
		subi r0, r0, 1
		brt  r0, loop
		bru  done
		nop
	done:
		tend
	`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Symbols["start"] != 0 {
		t.Errorf("start = %d, want 0", p.Symbols["start"])
	}
	if p.Symbols["loop"] != 2 {
		t.Errorf("loop = %d, want 2 (after 2-word ldc)", p.Symbols["loop"])
	}
	// brt's immediate must hold loop's word address.
	in, err := Decode(p.Words[4], p.Words[5])
	if err != nil || in.Op != OpBRT || in.Imm != 2 {
		t.Errorf("brt decoded as %v imm=%d err=%v", in.Op, in.Imm, err)
	}
}

func TestAssembleDataAndByteRefs(t *testing.T) {
	p, err := Assemble(`
		ldc  r0, @table
		ldwi r1, r0, 1
		tend
	table:
		.word 10, 20, 30
		.space 2
	`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := p.Symbols["table"]
	// ldc(2) + ldwi(2) + tend(1) = 5 words.
	if tbl != 5 {
		t.Fatalf("table = %d, want 5", tbl)
	}
	in, _ := Decode(p.Words[0], p.Words[1])
	if in.Imm != int32(tbl*4) {
		t.Errorf("@table = %d, want byte address %d", in.Imm, tbl*4)
	}
	if p.Words[tbl] != 10 || p.Words[tbl+2] != 30 {
		t.Errorf("table contents wrong: %v", p.Words[tbl:tbl+3])
	}
	if p.Words[tbl+3] != 0 || p.Words[tbl+4] != 0 {
		t.Error(".space words not zero")
	}
	if len(p.Words) != tbl+5 {
		t.Errorf("image length %d, want %d", len(p.Words), tbl+5)
	}
}

func TestAssembleImmediateForms(t *testing.T) {
	p, err := Assemble(`
		ldc r0, 0x1f
		ldc r1, 'A'
		ldc r2, -1
		outct r3, ct_end
	`)
	if err != nil {
		t.Fatal(err)
	}
	in, _ := Decode(p.Words[0], p.Words[1])
	if in.Imm != 0x1f {
		t.Errorf("hex imm = %d", in.Imm)
	}
	in, _ = Decode(p.Words[2], p.Words[3])
	if in.Imm != 'A' {
		t.Errorf("char imm = %d", in.Imm)
	}
	in, _ = Decode(p.Words[4], p.Words[5])
	if uint32(in.Imm) != 0xffffffff {
		t.Errorf("-1 imm = %#x", uint32(in.Imm))
	}
	in, _ = Decode(p.Words[6], p.Words[7])
	if in.Imm != 1 {
		t.Errorf("ct_end = %d, want 1", in.Imm)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name, src string
	}{
		{"unknown op", "frobnicate r0"},
		{"bad register", "add r0, r1, r99"},
		{"wrong operand count", "add r0, r1"},
		{"undefined label", "bru nowhere"},
		{"duplicate label", "x:\nnop\nx:\nnop"},
		{"bad label", "9bad:\nnop"},
		{"bad directive", ".bogus 3"},
		{"bad immediate", "ldc r0, zzz"},
		{"space without count", ".space"},
	}
	for _, c := range cases {
		if _, err := Assemble(c.src); err == nil {
			t.Errorf("%s: assembled without error", c.name)
		}
	}
}

func TestAssembleTooBig(t *testing.T) {
	var b strings.Builder
	for i := 0; i < MemSize/8+10; i++ {
		b.WriteString("ldc r0, 1\n")
	}
	if _, err := Assemble(b.String()); err == nil {
		t.Error("oversized program assembled")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble of garbage did not panic")
		}
	}()
	MustAssemble("bogus r0")
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(opRaw, a, b, cc uint8, imm int32) bool {
		op := Opcode(int(opRaw) % NumOpcodes)
		in := Instr{Op: op, A: a % NumRegs, B: b % NumRegs, C: cc % NumRegs, Imm: imm}
		if !op.hasImm() {
			in.Imm = 0
		}
		words := in.Encode()
		w1 := uint32(0)
		if len(words) > 1 {
			w1 = words[1]
		}
		got, err := Decode(words[0], w1)
		return err == nil && got == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(uint32(0xee)<<24, 0); err == nil {
		t.Error("illegal opcode decoded")
	}
	// An imm-carrying opcode without the imm flag bit.
	if _, err := Decode(uint32(OpLDC)<<24, 0); err == nil {
		t.Error("missing imm flag accepted")
	}
	// A register field past the register file: add r1, r40, r2.
	if _, err := Decode(uint32(OpADD)<<24|1<<18|40<<12|2<<6, 0); err == nil {
		t.Error("register r40 decoded")
	}
}

func TestDisassemble(t *testing.T) {
	p := MustAssemble(`
		ldc r0, 7
		add r1, r0, r0
		stwi r1, sp, 0
		bru end
	end:
		tend
	`)
	lines := Disassemble(p)
	joined := strings.Join(lines, "\n")
	for _, want := range []string{"ldc r0, 7", "add r1, r0, r0", "stwi r1, sp, 0", "tend"} {
		if !strings.Contains(joined, want) {
			t.Errorf("disassembly missing %q:\n%s", want, joined)
		}
	}
}

func TestInstrStringForms(t *testing.T) {
	cases := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: OpNOP}, "nop"},
		{Instr{Op: OpRET}, "ret"},
		{Instr{Op: OpDBG, A: 3}, "dbg r3"},
		{Instr{Op: OpSETD, A: 1, B: 2}, "setd r1, r2"},
		{Instr{Op: OpADD, A: 1, B: 2, C: 3}, "add r1, r2, r3"},
		{Instr{Op: OpLDC, A: 0, Imm: 9}, "ldc r0, 9"},
		{Instr{Op: OpADDI, A: 0, B: 1, Imm: 4}, "addi r0, r1, 4"},
		{Instr{Op: OpBRU, Imm: 12}, "bru 12"},
		{Instr{Op: OpTSETR, A: 1, B: 2, Imm: 0}, "tsetr r1, 0, r2"},
		{Instr{Op: OpSTWI, A: 5, B: RegSP, Imm: 0}, "stwi r5, sp, 0"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestRegNames(t *testing.T) {
	if RegName(0) != "r0" || RegName(RegSP) != "sp" || RegName(RegLR) != "lr" {
		t.Error("register naming wrong")
	}
}
