// Package xs1 is a cycle-approximate instruction-set simulator for the
// XMOS XS1-L micro-architecture as used in Swallow: a 32-bit processor
// with eight hardware threads, a four-stage pipeline with overhead-free
// thread context switching, 64 KiB of single-cycle unified SRAM, and
// ISA-level primitives for channel communication and timing.
//
// Time-determinism is the architectural property the platform is built
// around: every instruction has a fixed issue cost (the iterative
// divider is the documented exception) and the thread scheduler is an
// exact round robin, so the throughput laws of the paper's Eq. 2 -
//
//	IPSt = f / max(4, Nt)    IPSc = f * min(4, Nt) / 4
//
// fall out of the pipeline model rather than being asserted.
//
// The instruction encoding here is a simulator-friendly fixed 32-bit
// format (opcode + three 6-bit operand fields + an optional immediate
// extension word) rather than XMOS's variable 16/32-bit encoding; the
// semantics and timing follow the XS1 document. Deviations are noted on
// the affected opcodes.
package xs1

import "fmt"

// Register indices. Twelve general-purpose registers plus the stack
// pointer and link register are addressable in operand fields.
const (
	// NumGPRegs is the count of general purpose registers r0-r11.
	NumGPRegs = 12
	// RegSP is the stack pointer's operand index.
	RegSP = 12
	// RegLR is the link register's operand index.
	RegLR = 13
	// NumRegs is the size of a thread's addressable register file.
	NumRegs = 14
)

// RegName renders an operand register index.
func RegName(r uint8) string {
	switch r {
	case RegSP:
		return "sp"
	case RegLR:
		return "lr"
	default:
		return fmt.Sprintf("r%d", r)
	}
}

// Opcode enumerates the implemented instruction set.
type Opcode uint8

const (
	// OpNOP does nothing for one issue slot.
	OpNOP Opcode = iota

	// Three-register ALU operations: rd = ra OP rb.
	OpADD
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpSHL
	OpSHR
	OpASHR
	OpMUL
	OpDIVU // blocks the issuing thread for the divider's 32 cycles
	OpREMU // as OpDIVU
	OpEQ   // rd = (ra == rb)
	OpLSS  // rd = (signed ra < signed rb)
	OpLSU  // rd = (unsigned ra < unsigned rb)

	// Two-register ALU operations: rd = OP ra.
	OpNOT
	OpNEG

	// Immediate forms.
	OpLDC   // rd = imm (32-bit immediate via extension word)
	OpADDI  // rd = ra + imm
	OpSUBI  // rd = ra - imm
	OpSHLI  // rd = ra << imm
	OpSHRI  // rd = ra >> imm (logical)
	OpANDI  // rd = ra & imm
	OpORI   // rd = ra | imm
	OpMKMSK // rd = (1 << imm) - 1

	// Memory operations against the single-cycle SRAM.
	OpLDW   // rd = mem32[ra + rb*4]
	OpLDWI  // rd = mem32[ra + imm*4]
	OpSTW   // mem32[ra + rb*4] = rd
	OpSTWI  // mem32[ra + imm*4] = rd
	OpLD8   // rd = zext mem8[ra + rb]
	OpST8   // mem8[ra + rb] = rd
	OpLD16S // rd = sext mem16[ra + rb*2]
	OpST16  // mem16[ra + rb*2] = rd

	// Control transfer. Branch targets are absolute instruction-word
	// addresses resolved by the assembler.
	OpBRU // pc = imm
	OpBRT // if ra != 0: pc = imm
	OpBRF // if ra == 0: pc = imm
	OpBL  // lr = return address; pc = imm
	OpBAU // pc = ra (word address)
	OpRET // pc = lr

	// Thread operations.
	OpGETST  // rd = id of a newly allocated thread, pc = imm, paused
	OpTSETR  // thread ra's register imm = rb
	OpTSTART // start thread ra
	OpTEND   // current thread halts and frees itself
	OpTJOIN  // block until thread ra has halted

	// Resource operations (channel ends, timers).
	OpGETR  // rd = resource id of type imm (2 = chanend, 3 = timer)
	OpFREER // free resource ra
	OpSETD  // set destination of chanend ra to rb
	OpOUT   // output word rb on chanend ra (blocking)
	OpIN    // rd = input word from chanend ra (blocking)
	OpOUTT  // output data token (low byte of rb) on chanend ra
	OpINT   // rd = next data token from chanend ra (blocking)
	OpOUTCT // output control token imm on chanend ra
	OpCHKCT // consume control token imm from chanend ra (blocking;
	// trap on mismatch)

	// Timing and identity.
	OpTIME   // rd = reference clock (10 ns ticks)
	OpTWAIT  // block until reference clock >= ra
	OpGETID  // rd = this core's node id
	OpGETTID // rd = this hardware thread's id

	// Debug/trace (simulator instrumentation, akin to xSCOPE probes).
	OpDBG  // append ra to the core's debug trace
	OpDBGC // append low byte of ra to the core's console

	numOpcodes
)

// NumOpcodes is the number of defined opcodes.
const NumOpcodes = int(numOpcodes)

// operand pattern codes describing how an instruction's fields are used.
type pattern uint8

const (
	patNone pattern = iota // no operands
	patR                   // ra
	patRR                  // rd/ra, rb
	patRRR                 // rd, ra, rb
	patRI                  // rd/ra, imm
	patRRI                 // rd, ra, imm
	patI                   // imm
	patRL                  // rd/ra, label (imm)
	patL                   // label (imm)
	patRIR                 // ra, imm, rb (TSETR)
)

// opInfo is the static description of an opcode.
type opInfo struct {
	name string
	pat  pattern
	// immIsLabel marks immediates resolved from labels to instruction
	// word addresses.
	immIsLabel bool
}

var opTable = [NumOpcodes]opInfo{
	OpNOP:    {"nop", patNone, false},
	OpADD:    {"add", patRRR, false},
	OpSUB:    {"sub", patRRR, false},
	OpAND:    {"and", patRRR, false},
	OpOR:     {"or", patRRR, false},
	OpXOR:    {"xor", patRRR, false},
	OpSHL:    {"shl", patRRR, false},
	OpSHR:    {"shr", patRRR, false},
	OpASHR:   {"ashr", patRRR, false},
	OpMUL:    {"mul", patRRR, false},
	OpDIVU:   {"divu", patRRR, false},
	OpREMU:   {"remu", patRRR, false},
	OpEQ:     {"eq", patRRR, false},
	OpLSS:    {"lss", patRRR, false},
	OpLSU:    {"lsu", patRRR, false},
	OpNOT:    {"not", patRR, false},
	OpNEG:    {"neg", patRR, false},
	OpLDC:    {"ldc", patRI, false},
	OpADDI:   {"addi", patRRI, false},
	OpSUBI:   {"subi", patRRI, false},
	OpSHLI:   {"shli", patRRI, false},
	OpSHRI:   {"shri", patRRI, false},
	OpANDI:   {"andi", patRRI, false},
	OpORI:    {"ori", patRRI, false},
	OpMKMSK:  {"mkmsk", patRI, false},
	OpLDW:    {"ldw", patRRR, false},
	OpLDWI:   {"ldwi", patRRI, false},
	OpSTW:    {"stw", patRRR, false},
	OpSTWI:   {"stwi", patRRI, false},
	OpLD8:    {"ld8", patRRR, false},
	OpST8:    {"st8", patRRR, false},
	OpLD16S:  {"ld16s", patRRR, false},
	OpST16:   {"st16", patRRR, false},
	OpBRU:    {"bru", patL, true},
	OpBRT:    {"brt", patRL, true},
	OpBRF:    {"brf", patRL, true},
	OpBL:     {"bl", patL, true},
	OpBAU:    {"bau", patR, false},
	OpRET:    {"ret", patNone, false},
	OpGETST:  {"getst", patRL, true},
	OpTSETR:  {"tsetr", patRIR, false},
	OpTSTART: {"tstart", patR, false},
	OpTEND:   {"tend", patNone, false},
	OpTJOIN:  {"tjoin", patR, false},
	OpGETR:   {"getr", patRI, false},
	OpFREER:  {"freer", patR, false},
	OpSETD:   {"setd", patRR, false},
	OpOUT:    {"out", patRR, false},
	OpIN:     {"in", patRR, false},
	OpOUTT:   {"outt", patRR, false},
	OpINT:    {"int", patRR, false},
	OpOUTCT:  {"outct", patRI, false},
	OpCHKCT:  {"chkct", patRI, false},
	OpTIME:   {"time", patR, false},
	OpTWAIT:  {"twait", patR, false},
	OpGETID:  {"getid", patR, false},
	OpGETTID: {"gettid", patR, false},
	OpDBG:    {"dbg", patR, false},
	OpDBGC:   {"dbgc", patR, false},
}

// Name returns the assembler mnemonic.
func (o Opcode) Name() string {
	if int(o) < NumOpcodes {
		return opTable[o].name
	}
	return fmt.Sprintf("op%d", int(o))
}

// hasImm reports whether the opcode carries an immediate extension word.
func (o Opcode) hasImm() bool {
	switch opTable[o].pat {
	case patRI, patRRI, patI, patRL, patL, patRIR:
		return true
	}
	return false
}

// Instr is a decoded instruction.
type Instr struct {
	Op      Opcode
	A, B, C uint8
	Imm     int32
}

// Words reports the encoded size in 32-bit words.
func (i Instr) Words() int {
	if i.Op.hasImm() {
		return 2
	}
	return 1
}

// Encode packs the instruction into its one- or two-word form.
func (i Instr) Encode() []uint32 {
	w := uint32(i.Op)<<24 | uint32(i.A&0x3f)<<18 | uint32(i.B&0x3f)<<12 | uint32(i.C&0x3f)<<6
	if i.Op.hasImm() {
		w |= 1
		return []uint32{w, uint32(i.Imm)}
	}
	return []uint32{w}
}

// Decode unpacks an instruction starting at word w0, with w1 available
// as the potential immediate extension.
func Decode(w0, w1 uint32) (Instr, error) {
	op := Opcode(w0 >> 24)
	if int(op) >= NumOpcodes {
		return Instr{}, fmt.Errorf("xs1: illegal opcode %#x", w0>>24)
	}
	in := Instr{
		Op: op,
		A:  uint8(w0 >> 18 & 0x3f),
		B:  uint8(w0 >> 12 & 0x3f),
		C:  uint8(w0 >> 6 & 0x3f),
	}
	// An operand field has room for 64 registers, a thread holds
	// NumRegs: a larger index would run off the register file.
	if r := max(in.A, in.B, in.C); r >= NumRegs {
		return Instr{}, fmt.Errorf("xs1: %s names register %d of %d", op.Name(), r, NumRegs)
	}
	if op.hasImm() {
		if w0&1 == 0 {
			return Instr{}, fmt.Errorf("xs1: opcode %s missing immediate flag", op.Name())
		}
		in.Imm = int32(w1)
	}
	return in, nil
}

// String renders the instruction in assembler syntax.
func (i Instr) String() string {
	info := opTable[i.Op]
	switch info.pat {
	case patNone:
		return info.name
	case patR:
		return fmt.Sprintf("%s %s", info.name, RegName(i.A))
	case patRR:
		return fmt.Sprintf("%s %s, %s", info.name, RegName(i.A), RegName(i.B))
	case patRRR:
		return fmt.Sprintf("%s %s, %s, %s", info.name, RegName(i.A), RegName(i.B), RegName(i.C))
	case patRI:
		return fmt.Sprintf("%s %s, %d", info.name, RegName(i.A), i.Imm)
	case patRRI:
		return fmt.Sprintf("%s %s, %s, %d", info.name, RegName(i.A), RegName(i.B), i.Imm)
	case patI, patL:
		return fmt.Sprintf("%s %d", info.name, i.Imm)
	case patRL:
		return fmt.Sprintf("%s %s, %d", info.name, RegName(i.A), i.Imm)
	case patRIR:
		return fmt.Sprintf("%s %s, %d, %s", info.name, RegName(i.A), i.Imm, RegName(i.B))
	}
	return info.name
}

// Resource type codes for OpGETR, matching the XS1 ABI values.
const (
	// ResTypeChanEnd allocates a channel end.
	ResTypeChanEnd = 2
	// ResTypeTimer allocates a timer.
	ResTypeTimer = 3
)

// Timer resource IDs are tagged to be distinguishable from channel-end
// IDs (which fit in 24 bits).
const timerResourceTag = 0x40000000

// DividerCycles is the extra thread stall of the iterative divider, the
// documented exception to single-slot issue.
const DividerCycles = 32

// PipelineDepth is the XS1-L pipeline depth: a thread may issue at most
// one instruction every PipelineDepth cycles, which with round-robin
// scheduling across Nt active threads yields Eq. 2.
const PipelineDepth = 4

// MaxThreads is the hardware thread count per core.
const MaxThreads = 8

// MemSize is the 64 KiB single-cycle unified SRAM.
const MemSize = 64 * 1024

// RefClockMHz is the 100 MHz reference clock timers count in.
const RefClockMHz = 100
