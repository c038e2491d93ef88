package xs1

import (
	"swallow/internal/energy"
	"swallow/internal/noc"
	"swallow/internal/sim"
	"swallow/internal/trace"
)

// classOf maps an opcode to its energy class.
func classOf(op Opcode) energy.InstrClass {
	switch op {
	case OpNOP, OpDBG, OpDBGC:
		return energy.ClassNop
	case OpMUL:
		return energy.ClassMul
	case OpDIVU, OpREMU:
		return energy.ClassDiv
	case OpLDW, OpLDWI, OpSTW, OpSTWI, OpLD8, OpST8, OpLD16S, OpST16:
		return energy.ClassMem
	case OpBRU, OpBRT, OpBRF, OpBL, OpBAU, OpRET:
		return energy.ClassBranch
	case OpGETR, OpFREER, OpSETD, OpOUT, OpIN, OpOUTT, OpINT, OpOUTCT,
		OpCHKCT, OpGETST, OpTSETR, OpTSTART, OpTEND, OpTJOIN,
		OpTIME, OpTWAIT, OpGETID, OpGETTID:
		return energy.ClassComm
	default:
		return energy.ClassALU
	}
}

// refNow is the 100 MHz reference clock reading.
func (c *Core) refNow() uint32 {
	return uint32(c.k.Now() / (10 * sim.Nanosecond))
}

// blockOnChan parks a thread until the channel end wakes it. The
// blocked instruction re-issues on wake, so each retry consumes an
// issue slot exactly as the hardware's event system would replay it.
func (c *Core) blockOnChan(th *Thread, ce *noc.ChanEnd) {
	th.State = TBlockedChan
	th.blockedOn = ce
	c.traceEmit(trace.KindChanBlock, int64(th.ID), int64(ce.ID()))
	ce.SetWake(c.chanWake(th, ce))
}

// chanWake returns the wake callback of a (thread, channel end) pair:
// built the first time the pair blocks and reused ever after, so a
// blocking IN/OUT allocates nothing in steady state. Both captures are
// stable for the core's lifetime (threads live in the core, channel
// ends in its switch), so the table survives Restore.
func (c *Core) chanWake(th *Thread, ce *noc.ChanEnd) func() {
	row := c.chanWakes[th.ID]
	if row == nil {
		row = make([]func(), c.sw.ChanEndCount())
		c.chanWakes[th.ID] = row
	}
	wake := &row[ce.ID().Index()]
	if *wake == nil {
		*wake = func() {
			// A wake that cannot satisfy the thread is accounted for
			// where it fires, if it may be (stall.go); else it kicks.
			if th.State == TBlockedChan && th.blockedOn == ce && !c.countDoomedWake(th) {
				c.kickThread(th)
			}
		}
	}
	return *wake
}

// fetchSlow reads and decodes the instruction at th.PC straight from
// SRAM into the core's scratch entry, trapping the thread on a fetch or
// decode fault (nil). It is the uncached path: the turbo fetch falls back
// to it for anything the predecode cache cannot hold, so faults trap with
// identical diagnostics either way.
func (c *Core) fetchSlow(th *Thread) *ientry {
	w0, err := c.loadWord(th.PC * 4)
	if err != nil {
		c.trapThread(th, "instruction fetch: %v", err)
		return nil
	}
	var w1 uint32
	if th.PC+1 < MemSize/4 {
		w1, _ = c.loadWord(th.PC*4 + 4)
	}
	in, err := Decode(w0, w1)
	if err != nil {
		c.trapThread(th, "decode at %#x: %v", th.PC, err)
		return nil
	}
	c.scratch = ientry{in: in, class: uint8(classOf(in.Op)), words: uint8(in.Words())}
	return &c.scratch
}

// issue runs e's instruction for th in the issue slot at time now,
// charges it if it issued, and spaces th's next slot the pipeline depth
// on while it stays ready: the slot step every pipeline shares.
func (c *Core) issue(th *Thread, e *ientry, now sim.Time) {
	if c.run(th, &e.in, uint32(e.words), now) {
		c.chargeInstr(th, energy.InstrClass(e.class), now)
	}
	if th.State == TReady {
		th.nextReady = max(th.nextReady, now+c.clk.Cycles(PipelineDepth))
	}
}

// run executes one already-decoded instruction of thread th in the
// issue slot at time now, words being its encoded size, and reports
// whether it issued: the caller charges it (chargeInstr) if so (issue). An
// instruction that traps or blocks on a channel end did not issue — but
// for a misaligned BAU, which issued before its target trapped. Every
// caller charges at one site, and the rotation (window.go) folds what it
// charges. Everything a non-communication instruction dates — the divider
// stall — takes now rather than the kernel clock, which is what lets a
// core pre-execute such slots ahead of the kernel (window.go);
// communication instructions only ever run with now equal to the kernel
// clock.
func (c *Core) run(th *Thread, in *Instr, words uint32, now sim.Time) bool {
	r := &th.Regs
	next := th.PC + words
	imm := uint32(in.Imm)

	switch in.Op {
	case OpNOP:
	case OpADD:
		r[in.A] = r[in.B] + r[in.C]
	case OpSUB:
		r[in.A] = r[in.B] - r[in.C]
	case OpAND:
		r[in.A] = r[in.B] & r[in.C]
	case OpOR:
		r[in.A] = r[in.B] | r[in.C]
	case OpXOR:
		r[in.A] = r[in.B] ^ r[in.C]
	case OpSHL:
		r[in.A] = shiftL(r[in.B], r[in.C])
	case OpSHR:
		r[in.A] = shiftR(r[in.B], r[in.C])
	case OpASHR:
		if r[in.C] >= 32 {
			r[in.A] = uint32(int32(r[in.B]) >> 31)
		} else {
			r[in.A] = uint32(int32(r[in.B]) >> r[in.C])
		}
	case OpMUL:
		r[in.A] = r[in.B] * r[in.C]
	case OpDIVU, OpREMU:
		if r[in.C] == 0 {
			c.trapThread(th, "divide by zero at %#x", th.PC)
			return false
		}
		if in.Op == OpDIVU {
			r[in.A] = r[in.B] / r[in.C]
		} else {
			r[in.A] = r[in.B] % r[in.C]
		}
		// The iterative divider stalls only the issuing thread.
		th.nextReady = now + c.clk.Cycles(DividerCycles)
	case OpEQ:
		r[in.A] = b2u(r[in.B] == r[in.C])
	case OpLSS:
		r[in.A] = b2u(int32(r[in.B]) < int32(r[in.C]))
	case OpLSU:
		r[in.A] = b2u(r[in.B] < r[in.C])
	case OpNOT:
		r[in.A] = ^r[in.B]
	case OpNEG:
		r[in.A] = -r[in.B]

	case OpLDC:
		r[in.A] = imm
	case OpADDI:
		r[in.A] = r[in.B] + imm
	case OpSUBI:
		r[in.A] = r[in.B] - imm
	case OpSHLI:
		r[in.A] = shiftL(r[in.B], imm)
	case OpSHRI:
		r[in.A] = shiftR(r[in.B], imm)
	case OpANDI:
		r[in.A] = r[in.B] & imm
	case OpORI:
		r[in.A] = r[in.B] | imm
	case OpMKMSK:
		if imm >= 32 {
			r[in.A] = ^uint32(0)
		} else {
			r[in.A] = (1 << imm) - 1
		}

	case OpLDW, OpLDWI:
		addr := r[in.B]
		if in.Op == OpLDW {
			addr += r[in.C] * 4
		} else {
			addr += imm * 4
		}
		v, err := c.loadWord(addr)
		if err != nil {
			c.trapThread(th, "%v at pc %#x", err, th.PC)
			return false
		}
		r[in.A] = v
	case OpSTW, OpSTWI:
		addr := r[in.B]
		if in.Op == OpSTW {
			addr += r[in.C] * 4
		} else {
			addr += imm * 4
		}
		if err := c.storeWord(addr, r[in.A]); err != nil {
			c.trapThread(th, "%v at pc %#x", err, th.PC)
			return false
		}
	case OpLD8:
		addr := r[in.B] + r[in.C]
		if int(addr) >= MemSize {
			c.trapThread(th, "bad byte load at %#x", addr)
			return false
		}
		r[in.A] = uint32(c.mem[addr])
	case OpST8:
		addr := r[in.B] + r[in.C]
		if int(addr) >= MemSize {
			c.trapThread(th, "bad byte store at %#x", addr)
			return false
		}
		c.mem[addr] = byte(r[in.A])
		c.touch(addr)
	case OpLD16S:
		addr := r[in.B] + r[in.C]*2
		if addr&1 != 0 || int(addr)+2 > MemSize {
			c.trapThread(th, "bad halfword load at %#x", addr)
			return false
		}
		v := uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8
		r[in.A] = uint32(int32(v<<16) >> 16)
	case OpST16:
		addr := r[in.B] + r[in.C]*2
		if addr&1 != 0 || int(addr)+2 > MemSize {
			c.trapThread(th, "bad halfword store at %#x", addr)
			return false
		}
		c.mem[addr] = byte(r[in.A])
		c.mem[addr+1] = byte(r[in.A] >> 8)
		c.touch(addr)

	case OpBRU:
		th.PC = imm
		return true
	case OpBRT:
		if r[in.A] != 0 {
			th.PC = imm
			return true
		}
	case OpBRF:
		if r[in.A] == 0 {
			th.PC = imm
			return true
		}
	case OpBL:
		r[RegLR] = next
		th.PC = imm
		return true
	case OpBAU:
		// BAU takes a byte address, as labels materialised via '@' are.
		if r[in.A]&3 != 0 {
			c.trapThread(th, "misaligned branch target %#x", r[in.A])
			return true
		}
		th.PC = r[in.A] >> 2
		return true
	case OpRET:
		th.PC = r[RegLR]
		return true

	case OpGETST:
		id := c.allocThread(imm)
		if id < 0 {
			c.trapThread(th, "no free hardware thread")
			return false
		}
		r[in.A] = uint32(id)
	case OpTSETR:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads || c.threads[tid].State != TPaused {
			c.trapThread(th, "tsetr of thread %d in state %v", tid, c.threads[tid&7].State)
			return false
		}
		if imm >= NumRegs {
			c.trapThread(th, "tsetr register %d out of range", imm)
			return false
		}
		c.threads[tid].Regs[imm] = r[in.B]
	case OpTSTART:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads || c.threads[tid].State != TPaused {
			c.trapThread(th, "tstart of thread %d not paused", tid)
			return false
		}
		c.threads[tid].State = TReady
		c.threads[tid].nextReady = now
		c.traceThread(&c.threads[tid])
	case OpTEND:
		th.State = TDone
		c.traceThread(th)
		c.wakeJoiners(th.ID)
		return true
	case OpTJOIN:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads {
			c.trapThread(th, "tjoin of bad thread %d", tid)
			return false
		}
		if s := c.threads[tid].State; s != TDone && s != TFree {
			th.State = TBlockedJoin
			th.joinTarget = tid
			c.traceThread(th)
			return true
		}

	case OpGETR:
		switch imm {
		case ResTypeChanEnd:
			ce := c.sw.AllocChanEnd()
			if ce == nil {
				c.trapThread(th, "out of channel ends")
				return false
			}
			r[in.A] = uint32(ce.ID())
		case ResTypeTimer:
			idx := -1
			for i, used := range c.timerAlloc {
				if !used {
					idx = i
					break
				}
			}
			if idx < 0 {
				c.trapThread(th, "out of timers")
				return false
			}
			c.timerAlloc[idx] = true
			r[in.A] = uint32(timerResourceTag | idx)
		default:
			c.trapThread(th, "getr of unknown resource type %d", imm)
			return false
		}
	case OpFREER:
		rid := r[in.A]
		if rid&timerResourceTag != 0 {
			idx := int(rid &^ timerResourceTag)
			if idx < MaxThreads {
				c.timerAlloc[idx] = false
			}
			break
		}
		ce, ok := c.resolveChanEnd(th, rid)
		if !ok {
			return false
		}
		ce.Free()
	case OpSETD:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		ce.SetDest(noc.ChanEndID(r[in.B]))
	case OpOUT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		if !ce.OutWord(r[in.B]) {
			c.blockOnChan(th, ce)
			return false
		}
	case OpIN:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		v, ok2 := ce.InWord()
		if !ok2 {
			c.blockOnChan(th, ce)
			return false
		}
		r[in.B] = v
	case OpOUTT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		if !ce.TryOut(noc.DataToken(byte(r[in.B]))) {
			c.blockOnChan(th, ce)
			return false
		}
	case OpINT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		tok, ok2 := ce.TryIn()
		if !ok2 {
			c.blockOnChan(th, ce)
			return false
		}
		if tok.Ctrl {
			c.trapThread(th, "INT received control token %v", tok)
			return false
		}
		r[in.B] = uint32(tok.Val)
	case OpOUTCT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		if !ce.TryOut(noc.CtrlToken(byte(imm))) {
			c.blockOnChan(th, ce)
			return false
		}
	case OpCHKCT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return false
		}
		tok, ok2 := ce.PeekIn()
		if !ok2 {
			c.blockOnChan(th, ce)
			return false
		}
		if !tok.Ctrl || tok.Val != byte(imm) {
			c.trapThread(th, "CHKCT %d saw %v", imm, tok)
			return false
		}
		ce.TryIn()

	case OpTIME:
		r[in.A] = c.refNow()
	case OpTWAIT:
		deadline := r[in.A]
		if int32(deadline-c.refNow()) > 0 {
			th.State = TBlockedTime
			c.traceThread(th)
			when := c.k.Now() + sim.Time(int32(deadline-c.refNow()))*10*sim.Nanosecond
			c.twaitTimers[th.ID].ArmAt(when)
			// TWAIT completes when the deadline passes; PC advances now
			// so the wake resumes after it.
			th.PC = next
			return true
		}
	case OpGETID:
		r[in.A] = uint32(c.node)
	case OpGETTID:
		r[in.A] = uint32(th.ID)

	case OpDBG:
		c.DebugTrace = append(c.DebugTrace, r[in.A])
	case OpDBGC:
		c.Console = append(c.Console, byte(r[in.A]))

	default:
		c.trapThread(th, "unimplemented opcode %v", in.Op)
		return false
	}
	th.PC = next
	return true
}

// allocThread grabs a free hardware thread, paused at pc.
func (c *Core) allocThread(pc uint32) int {
	for i := range c.threads {
		if c.threads[i].State == TFree {
			t := &c.threads[i]
			*t = Thread{ID: i, State: TPaused, PC: pc}
			c.rrNormalize()
			c.rr = append(c.rr, i)
			return i
		}
	}
	return -1
}

// wakeJoiners readies threads joined on a halted thread.
func (c *Core) wakeJoiners(tid int) {
	for i := range c.threads {
		t := &c.threads[i]
		if t.State == TBlockedJoin && t.joinTarget == tid {
			t.State = TReady
			c.traceThread(t)
			c.scheduleIssue(c.alignUp(c.k.Now()))
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func shiftL(v, n uint32) uint32 {
	if n >= 32 {
		return 0
	}
	return v << n
}

func shiftR(v, n uint32) uint32 {
	if n >= 32 {
		return 0
	}
	return v >> n
}
