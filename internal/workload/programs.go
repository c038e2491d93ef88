// Package workload generates the parallel program structures Swallow
// was built to study (Section I of the paper): groups of tasks,
// pipelines, client/server farms, message passing and shared-memory
// emulation - both as XS1 assembly programs for the instruction-set
// simulator and as channel-end-level traffic generators for pure
// network experiments.
package workload

import (
	"fmt"
	"strings"

	"swallow/internal/noc"
	"swallow/internal/xs1"
)

// threadStackTop places per-thread stacks below the main stack,
// 2 KiB apart.
func threadStackTop(tid int) int { return 0xF000 - tid*0x800 }

// spawnWorkers emits assembly that starts n workers at label 'worker',
// each with r0 = iters and a private stack.
func spawnWorkers(b *strings.Builder, n, iters int) {
	fmt.Fprintf(b, "ldc r4, %d\n", iters)
	for i := 1; i <= n; i++ {
		b.WriteString("getst r1, worker\n")
		b.WriteString("tsetr r1, 0, r4\n")
		fmt.Fprintf(b, "ldc r2, %d\n", threadStackTop(i))
		b.WriteString("tsetr r1, 12, r2\n")
		b.WriteString("tstart r1\n")
	}
}

// BusyLoop is the lightest load: an ALU/branch spin executed by
// nThreads hardware threads for iters iterations each. It is the
// microbenchmark behind the Eq. 2 throughput measurements.
func BusyLoop(nThreads, iters int) *xs1.Program {
	if nThreads < 1 || nThreads > xs1.MaxThreads {
		panic(fmt.Sprintf("workload: thread count %d outside 1-8", nThreads))
	}
	var b strings.Builder
	spawnWorkers(&b, nThreads-1, iters)
	b.WriteString("add r0, r4, r5\nmainloop:\nsubi r0, r0, 1\nbrt r0, mainloop\ntend\n")
	b.WriteString("worker:\nworkloop:\nsubi r0, r0, 1\nbrt r0, workloop\ntend\n")
	return xs1.MustAssemble(b.String())
}

// heavyBody is a ten-instruction loop body whose class mix (2 memory,
// 1 multiply, 5 ALU, 1 ALU-subtract, 1 branch) averages the ~0.16 nJ
// incremental energy per instruction that reproduces Eq. 1's 193 mW
// fully loaded core at 500 MHz.
const heavyBody = `
	ldwi r6, sp, -4
	stwi r6, sp, -4
	mul  r7, r0, r0
	add  r8, r8, r7
	add  r8, r8, r7
	add  r8, r8, r7
	add  r8, r8, r7
	add  r8, r8, r7
	subi r0, r0, 1
`

// HeavyLoad runs the paper's "heavy load" operating point: nThreads
// threads executing a realistic compute/memory mix for iters loop
// iterations each. Four threads of this at 500 MHz draw ~193 mW/core.
func HeavyLoad(nThreads, iters int) *xs1.Program {
	if nThreads < 1 || nThreads > xs1.MaxThreads {
		panic(fmt.Sprintf("workload: thread count %d outside 1-8", nThreads))
	}
	var b strings.Builder
	spawnWorkers(&b, nThreads-1, iters)
	b.WriteString("add r0, r4, r5\nmainloop:")
	b.WriteString(heavyBody)
	b.WriteString("brt r0, mainloop\ntend\n")
	b.WriteString("worker:\nworkloop:")
	b.WriteString(heavyBody)
	b.WriteString("brt r0, workloop\ntend\n")
	return xs1.MustAssemble(b.String())
}

// StreamTx emits a program that allocates a channel end, points it at
// dest, sends words 32-bit values (0, 1, 2, ...), closes the route and
// halts.
func StreamTx(dest noc.ChanEndID, words int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r2, %d      ; remaining
		ldc  r3, 0       ; value
	txloop:
		out  r0, r3
		addi r3, r3, 1
		subi r2, r2, 1
		brt  r2, txloop
		outct r0, ct_end
		tend
	`, uint32(dest), words)
	return xs1.MustAssemble(src)
}

// StreamRx emits a program that receives words 32-bit values on its
// channel end 0, accumulates them, verifies the closing END token, and
// leaves the sum in the debug trace.
func StreamRx(words int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		ldc  r2, %d
		ldc  r3, 0
	rxloop:
		in   r0, r4
		add  r3, r3, r4
		subi r2, r2, 1
		brt  r2, rxloop
		chkct r0, ct_end
		dbg  r3
		tend
	`, words)
	return xs1.MustAssemble(src)
}

// PingTx measures round-trip latency: it stamps the reference clock,
// sends a word, waits for the echo, and leaves (end - start) reference
// ticks in the debug trace, repeating rounds times.
func PingTx(dest noc.ChanEndID, rounds int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r5, %d
	pingloop:
		time r2
		out  r0, r2
		in   r0, r3
		time r4
		sub  r4, r4, r2
		dbg  r4
		subi r5, r5, 1
		brt  r5, pingloop
		outct r0, ct_end
		tend
	`, uint32(dest), rounds)
	return xs1.MustAssemble(src)
}

// LocalPingPong measures thread-to-thread latency inside one core:
// thread 0 ping-pongs words with a sibling thread through the core's
// channel ends main (chanend 0) and peer (chanend 1), wiring both
// directions before starting the peer, and leaves per-round round-trip
// reference-tick times in the debug trace. It is the core-local probe
// of the Section V-C latency table.
func LocalPingPong(main, peer noc.ChanEndID, rounds int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2        ; chanend 0 (main)
		getr r1, 2        ; chanend 1 (peer)
		ldc  r2, %d
		setd r0, r2       ; main -> peer
		ldc  r2, %d
		setd r1, r2       ; peer -> main
		getst r3, peer
		tsetr r3, 0, r1   ; peer's channel end
		ldc  r4, 0x8000
		tsetr r3, 12, r4
		tstart r3
		ldc  r5, %d       ; rounds
	pingloop:
		time r6
		out  r0, r6
		in   r0, r7
		time r8
		sub  r8, r8, r6
		dbg  r8
		subi r5, r5, 1
		brt  r5, pingloop
		outct r0, ct_end
		tjoin r3
		tend
	peer:
		ldc  r5, %d
	echo:
		in   r0, r2
		out  r0, r2
		subi r5, r5, 1
		brt  r5, echo
		chkct r0, ct_end
		outct r0, ct_end
		tend
	`, uint32(peer), uint32(main), rounds, rounds)
	return xs1.MustAssemble(src)
}

// PingRx echoes every received word back to txID, closing its route
// after rounds echoes.
func PingRx(txID noc.ChanEndID, rounds int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2
		ldc  r1, %d
		setd r0, r1
		ldc  r5, %d
	echoloop:
		in   r0, r2
		out  r0, r2
		subi r5, r5, 1
		brt  r5, echoloop
		chkct r0, ct_end
		outct r0, ct_end
		tend
	`, uint32(txID), rounds)
	return xs1.MustAssemble(src)
}

// PipelineStage forwards words: it receives count words on channel end
// 0, applies an add-constant transform, and sends them to dest. Stages
// chain into the pipeline structure of Section I.
func PipelineStage(dest noc.ChanEndID, count, addend int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2       ; rx (chanend 0)
		getr r1, 2       ; tx (chanend 1)
		ldc  r2, %d
		setd r1, r2
		ldc  r3, %d      ; count
	stage:
		in   r0, r4
		addi r4, r4, %d
		out  r1, r4
		subi r3, r3, 1
		brt  r3, stage
		chkct r0, ct_end
		outct r1, ct_end
		tend
	`, uint32(dest), count, addend)
	return xs1.MustAssemble(src)
}

// PipelineSource feeds a pipeline with count ascending words.
func PipelineSource(dest noc.ChanEndID, count int) *xs1.Program {
	return StreamTx(dest, count)
}

// PipelineSink absorbs count words and debug-logs their sum.
func PipelineSink(count int) *xs1.Program {
	return StreamRx(count)
}

// ServerProgram is the client/server structure: the server answers
// requests (value -> value*2) from many clients; each request carries
// the client's reply channel id in the first word.
func ServerProgram(requests int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2       ; request channel (chanend 0)
		getr r1, 2       ; reply channel (chanend 1)
		ldc  r5, %d
	serve:
		in   r0, r2      ; reply chanend id
		in   r0, r3      ; payload
		chkct r0, ct_end ; request packet closed
		setd r1, r2
		add  r3, r3, r3  ; the "service": double it
		out  r1, r3
		outct r1, ct_end
		subi r5, r5, 1
		brt  r5, serve
		tend
	`, requests)
	return xs1.MustAssemble(src)
}

// ClientProgram issues requests to a server and checks replies, leaving
// the count of correct replies in the debug trace.
func ClientProgram(server noc.ChanEndID, requests int) *xs1.Program {
	src := fmt.Sprintf(`
		getr r0, 2       ; tx to server (chanend 0)
		getr r1, 2       ; rx replies (chanend 1)
		ldc  r2, %d
		setd r0, r2
		ldc  r5, %d      ; remaining
		ldc  r7, 0       ; correct count
		ldc  r8, 1       ; request value seed
	request:
		out  r0, r1      ; our reply channel id (GETR value)
		out  r0, r8
		outct r0, ct_end
		in   r1, r3
		chkct r1, ct_end
		add  r4, r8, r8
		eq   r4, r4, r3
		add  r7, r7, r4
		addi r8, r8, 3
		subi r5, r5, 1
		brt  r5, request
		dbg  r7
		tend
	`, uint32(server), requests)
	return xs1.MustAssemble(src)
}
