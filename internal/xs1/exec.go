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

// execute runs one instruction of thread th. Blocking instructions
// leave PC unchanged and park the thread; they re-execute when woken.
func (c *Core) execute(th *Thread, now sim.Time) {
	in, class, words, ok := c.fetchSlow(th)
	if !ok {
		return
	}
	c.run(th, &in, class, words, now)
}

// fetchSlow reads and decodes the instruction at th.PC straight from
// SRAM, trapping the thread on a fetch or decode fault. It is the
// uncached path: the turbo fetch falls back to it for anything the
// predecode cache cannot hold, so faults trap with identical
// diagnostics either way.
func (c *Core) fetchSlow(th *Thread) (in Instr, class energy.InstrClass, words uint32, ok bool) {
	w0, err := c.loadWord(th.PC * 4)
	if err != nil {
		c.trapThread(th, "instruction fetch: %v", err)
		return Instr{}, 0, 0, false
	}
	var w1 uint32
	if th.PC+1 < MemSize/4 {
		w1, _ = c.loadWord(th.PC*4 + 4)
	}
	in, err = Decode(w0, w1)
	if err != nil {
		c.trapThread(th, "decode at %#x: %v", th.PC, err)
		return Instr{}, 0, 0, false
	}
	return in, classOf(in.Op), uint32(in.Words()), true
}

// run executes one already-decoded instruction of thread th in the
// issue slot at time now. class and words are the instruction's
// precomputed energy class and encoded size (the predecode cache
// carries both, so the fast path never re-derives them). Everything a
// non-communication instruction dates — LastIssue, the divider stall —
// takes now rather than the kernel clock, which is what lets a core
// pre-execute such slots ahead of the kernel (turbo.go); communication
// instructions only ever run with now equal to the kernel clock.
func (c *Core) run(th *Thread, in *Instr, class energy.InstrClass, words uint32, now sim.Time) {
	r := &th.Regs
	next := th.PC + words
	imm := uint32(in.Imm)

	switch in.Op {
	case OpNOP:
		c.chargeInstr(th, class, now)
	case OpADD:
		r[in.A] = r[in.B] + r[in.C]
		c.chargeInstr(th, class, now)
	case OpSUB:
		r[in.A] = r[in.B] - r[in.C]
		c.chargeInstr(th, class, now)
	case OpAND:
		r[in.A] = r[in.B] & r[in.C]
		c.chargeInstr(th, class, now)
	case OpOR:
		r[in.A] = r[in.B] | r[in.C]
		c.chargeInstr(th, class, now)
	case OpXOR:
		r[in.A] = r[in.B] ^ r[in.C]
		c.chargeInstr(th, class, now)
	case OpSHL:
		r[in.A] = shiftL(r[in.B], r[in.C])
		c.chargeInstr(th, class, now)
	case OpSHR:
		r[in.A] = shiftR(r[in.B], r[in.C])
		c.chargeInstr(th, class, now)
	case OpASHR:
		if r[in.C] >= 32 {
			r[in.A] = uint32(int32(r[in.B]) >> 31)
		} else {
			r[in.A] = uint32(int32(r[in.B]) >> r[in.C])
		}
		c.chargeInstr(th, class, now)
	case OpMUL:
		r[in.A] = r[in.B] * r[in.C]
		c.chargeInstr(th, class, now)
	case OpDIVU, OpREMU:
		if r[in.C] == 0 {
			c.trapThread(th, "divide by zero at %#x", th.PC)
			return
		}
		if in.Op == OpDIVU {
			r[in.A] = r[in.B] / r[in.C]
		} else {
			r[in.A] = r[in.B] % r[in.C]
		}
		c.chargeInstr(th, class, now)
		// The iterative divider stalls only the issuing thread.
		th.nextReady = now + c.clk.Cycles(DividerCycles)
	case OpEQ:
		r[in.A] = b2u(r[in.B] == r[in.C])
		c.chargeInstr(th, class, now)
	case OpLSS:
		r[in.A] = b2u(int32(r[in.B]) < int32(r[in.C]))
		c.chargeInstr(th, class, now)
	case OpLSU:
		r[in.A] = b2u(r[in.B] < r[in.C])
		c.chargeInstr(th, class, now)
	case OpNOT:
		r[in.A] = ^r[in.B]
		c.chargeInstr(th, class, now)
	case OpNEG:
		r[in.A] = -r[in.B]
		c.chargeInstr(th, class, now)

	case OpLDC:
		r[in.A] = imm
		c.chargeInstr(th, class, now)
	case OpADDI:
		r[in.A] = r[in.B] + imm
		c.chargeInstr(th, class, now)
	case OpSUBI:
		r[in.A] = r[in.B] - imm
		c.chargeInstr(th, class, now)
	case OpSHLI:
		r[in.A] = shiftL(r[in.B], imm)
		c.chargeInstr(th, class, now)
	case OpSHRI:
		r[in.A] = shiftR(r[in.B], imm)
		c.chargeInstr(th, class, now)
	case OpANDI:
		r[in.A] = r[in.B] & imm
		c.chargeInstr(th, class, now)
	case OpORI:
		r[in.A] = r[in.B] | imm
		c.chargeInstr(th, class, now)
	case OpMKMSK:
		if imm >= 32 {
			r[in.A] = ^uint32(0)
		} else {
			r[in.A] = (1 << imm) - 1
		}
		c.chargeInstr(th, class, now)

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
			return
		}
		r[in.A] = v
		c.chargeInstr(th, class, now)
	case OpSTW, OpSTWI:
		addr := r[in.B]
		if in.Op == OpSTW {
			addr += r[in.C] * 4
		} else {
			addr += imm * 4
		}
		if err := c.storeWord(addr, r[in.A]); err != nil {
			c.trapThread(th, "%v at pc %#x", err, th.PC)
			return
		}
		c.chargeInstr(th, class, now)
	case OpLD8:
		addr := r[in.B] + r[in.C]
		if int(addr) >= MemSize {
			c.trapThread(th, "bad byte load at %#x", addr)
			return
		}
		r[in.A] = uint32(c.mem[addr])
		c.chargeInstr(th, class, now)
	case OpST8:
		addr := r[in.B] + r[in.C]
		if int(addr) >= MemSize {
			c.trapThread(th, "bad byte store at %#x", addr)
			return
		}
		c.mem[addr] = byte(r[in.A])
		c.touch(addr)
		c.chargeInstr(th, class, now)
	case OpLD16S:
		addr := r[in.B] + r[in.C]*2
		if addr&1 != 0 || int(addr)+2 > MemSize {
			c.trapThread(th, "bad halfword load at %#x", addr)
			return
		}
		v := uint32(c.mem[addr]) | uint32(c.mem[addr+1])<<8
		r[in.A] = uint32(int32(v<<16) >> 16)
		c.chargeInstr(th, class, now)
	case OpST16:
		addr := r[in.B] + r[in.C]*2
		if addr&1 != 0 || int(addr)+2 > MemSize {
			c.trapThread(th, "bad halfword store at %#x", addr)
			return
		}
		c.mem[addr] = byte(r[in.A])
		c.mem[addr+1] = byte(r[in.A] >> 8)
		c.touch(addr)
		c.chargeInstr(th, class, now)

	case OpBRU:
		c.chargeInstr(th, class, now)
		th.PC = imm
		return
	case OpBRT:
		c.chargeInstr(th, class, now)
		if r[in.A] != 0 {
			th.PC = imm
			return
		}
	case OpBRF:
		c.chargeInstr(th, class, now)
		if r[in.A] == 0 {
			th.PC = imm
			return
		}
	case OpBL:
		c.chargeInstr(th, class, now)
		r[RegLR] = next
		th.PC = imm
		return
	case OpBAU:
		c.chargeInstr(th, class, now)
		// BAU takes a byte address, as labels materialised via '@' are.
		if r[in.A]&3 != 0 {
			c.trapThread(th, "misaligned branch target %#x", r[in.A])
			return
		}
		th.PC = r[in.A] >> 2
		return
	case OpRET:
		c.chargeInstr(th, class, now)
		th.PC = r[RegLR]
		return

	case OpGETST:
		id := c.allocThread(imm)
		if id < 0 {
			c.trapThread(th, "no free hardware thread")
			return
		}
		r[in.A] = uint32(id)
		c.chargeInstr(th, class, now)
	case OpTSETR:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads || c.threads[tid].State != TPaused {
			c.trapThread(th, "tsetr of thread %d in state %v", tid, c.threads[tid&7].State)
			return
		}
		if imm >= NumRegs {
			c.trapThread(th, "tsetr register %d out of range", imm)
			return
		}
		c.threads[tid].Regs[imm] = r[in.B]
		c.chargeInstr(th, class, now)
	case OpTSTART:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads || c.threads[tid].State != TPaused {
			c.trapThread(th, "tstart of thread %d not paused", tid)
			return
		}
		c.threads[tid].State = TReady
		c.threads[tid].nextReady = now
		c.traceThread(&c.threads[tid])
		c.chargeInstr(th, class, now)
	case OpTEND:
		c.chargeInstr(th, class, now)
		th.State = TDone
		c.traceThread(th)
		c.wakeJoiners(th.ID)
		return
	case OpTJOIN:
		tid := int(r[in.A])
		if tid < 0 || tid >= MaxThreads {
			c.trapThread(th, "tjoin of bad thread %d", tid)
			return
		}
		switch c.threads[tid].State {
		case TDone, TFree:
			c.chargeInstr(th, class, now)
		default:
			c.chargeInstr(th, class, now)
			th.State = TBlockedJoin
			th.joinTarget = tid
			c.traceThread(th)
			return
		}

	case OpGETR:
		switch imm {
		case ResTypeChanEnd:
			ce := c.sw.AllocChanEnd()
			if ce == nil {
				c.trapThread(th, "out of channel ends")
				return
			}
			r[in.A] = uint32(ce.ID())
			c.chargeInstr(th, class, now)
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
				return
			}
			c.timerAlloc[idx] = true
			r[in.A] = uint32(timerResourceTag | idx)
			c.chargeInstr(th, class, now)
		default:
			c.trapThread(th, "getr of unknown resource type %d", imm)
			return
		}
	case OpFREER:
		rid := r[in.A]
		if rid&timerResourceTag != 0 {
			idx := int(rid &^ timerResourceTag)
			if idx < MaxThreads {
				c.timerAlloc[idx] = false
			}
			c.chargeInstr(th, class, now)
			break
		}
		ce, ok := c.resolveChanEnd(th, rid)
		if !ok {
			return
		}
		ce.Free()
		c.chargeInstr(th, class, now)
	case OpSETD:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		ce.SetDest(noc.ChanEndID(r[in.B]))
		c.chargeInstr(th, class, now)
	case OpOUT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		if !ce.OutWord(r[in.B]) {
			c.blockOnChan(th, ce)
			return
		}
		c.chargeInstr(th, class, now)
	case OpIN:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		v, ok2 := ce.InWord()
		if !ok2 {
			c.blockOnChan(th, ce)
			return
		}
		r[in.B] = v
		c.chargeInstr(th, class, now)
	case OpOUTT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		if !ce.TryOut(noc.DataToken(byte(r[in.B]))) {
			c.blockOnChan(th, ce)
			return
		}
		c.chargeInstr(th, class, now)
	case OpINT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		tok, ok2 := ce.TryIn()
		if !ok2 {
			c.blockOnChan(th, ce)
			return
		}
		if tok.Ctrl {
			c.trapThread(th, "INT received control token %v", tok)
			return
		}
		r[in.B] = uint32(tok.Val)
		c.chargeInstr(th, class, now)
	case OpOUTCT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		if !ce.TryOut(noc.CtrlToken(byte(imm))) {
			c.blockOnChan(th, ce)
			return
		}
		c.chargeInstr(th, class, now)
	case OpCHKCT:
		ce, ok := c.resolveChanEnd(th, r[in.A])
		if !ok {
			return
		}
		tok, ok2 := ce.PeekIn()
		if !ok2 {
			c.blockOnChan(th, ce)
			return
		}
		if !tok.Ctrl || tok.Val != byte(imm) {
			c.trapThread(th, "CHKCT %d saw %v", imm, tok)
			return
		}
		ce.TryIn()
		c.chargeInstr(th, class, now)

	case OpTIME:
		r[in.A] = c.refNow()
		c.chargeInstr(th, class, now)
	case OpTWAIT:
		deadline := r[in.A]
		if int32(deadline-c.refNow()) > 0 {
			c.chargeInstr(th, class, now)
			th.State = TBlockedTime
			c.traceThread(th)
			when := c.k.Now() + sim.Time(int32(deadline-c.refNow()))*10*sim.Nanosecond
			c.twaitTimers[th.ID].ArmAt(when)
			// TWAIT completes when the deadline passes; PC advances now
			// so the wake resumes after it.
			th.PC = next
			return
		}
		c.chargeInstr(th, class, now)
	case OpGETID:
		r[in.A] = uint32(c.node)
		c.chargeInstr(th, class, now)
	case OpGETTID:
		r[in.A] = uint32(th.ID)
		c.chargeInstr(th, class, now)

	case OpDBG:
		c.DebugTrace = append(c.DebugTrace, r[in.A])
		c.chargeInstr(th, class, now)
	case OpDBGC:
		c.Console = append(c.Console, byte(r[in.A]))
		c.chargeInstr(th, class, now)

	default:
		c.trapThread(th, "unimplemented opcode %v", in.Op)
		return
	}
	th.PC = next
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
