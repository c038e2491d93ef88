package workload

import (
	"fmt"

	"swallow/internal/noc"
	"swallow/internal/xs1"
)

// RingInjector starts a token around a ring of cores: it emits an
// initial zero word to the next hop, waits for the word to come back
// around (incremented once per hop), logs it, and closes.
func RingInjector(next noc.ChanEndID) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2       ; rx (chanend 0)
		getr r1, 2       ; tx (chanend 1)
		ldc  r2, %d
		setd r1, r2
		ldc  r3, 0
		out  r1, r3
		outct r1, ct_end
		in   r0, r4      ; the token returns
		chkct r0, ct_end
		dbg  r4
		tend
	`, uint32(next))
	return xs1.MustAssemble(src)
}

// RingRelay passes the circulating word on, incremented.
func RingRelay(next noc.ChanEndID) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		getr r1, 2
		ldc  r2, %d
		setd r1, r2
		in   r0, r3
		chkct r0, ct_end
		addi r3, r3, 1
		out  r1, r3
		outct r1, ct_end
		tend
	`, uint32(next))
	return xs1.MustAssemble(src)
}

// BarrierRoot collects one arrival packet (carrying the member's reply
// channel id) from each of n members, then releases them all - the
// "groups of tasks" synchronisation structure. It repeats for the
// given number of rounds.
func BarrierRoot(members, rounds int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2        ; arrivals (chanend 0)
		getr r1, 2        ; releases (chanend 1)
		ldc  r9, %d       ; rounds
		ldc  r10, @ids
	round:
		ldc  r5, %d       ; members to collect
		ldc  r6, 0        ; index
	collect:
		in   r0, r2       ; member reply id
		chkct r0, ct_end
		stw  r2, r10, r6
		addi r6, r6, 1
		subi r5, r5, 1
		brt  r5, collect
		ldc  r6, 0
		ldc  r5, %d
	release:
		ldw  r2, r10, r6
		setd r1, r2
		out  r1, r6       ; release value: member index this round
		outct r1, ct_end
		addi r6, r6, 1
		subi r5, r5, 1
		brt  r5, release
		subi r9, r9, 1
		brt  r9, round
		tend
	ids:
		.space 8
	`, rounds, members, members)
	return xs1.MustAssemble(src)
}

// BarrierMember arrives at the barrier and waits for release, rounds
// times, logging how many releases it observed.
func BarrierMember(root noc.ChanEndID, rounds int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2        ; rx releases (chanend 0)
		getr r1, 2        ; tx arrivals (chanend 1)
		ldc  r2, %d
		setd r1, r2
		ldc  r9, %d
		ldc  r8, 0        ; releases seen
	round:
		out  r1, r0       ; arrive: send our reply channel id
		outct r1, ct_end
		in   r0, r3       ; block until released
		chkct r0, ct_end
		addi r8, r8, 1
		subi r9, r9, 1
		brt  r9, round
		dbg  r8
		tend
	`, uint32(root), rounds)
	return xs1.MustAssemble(src)
}
