package xs1_test

import (
	"testing"

	"swallow/internal/noc"
	"swallow/internal/workload"
	"swallow/internal/xs1"
)

// FuzzDecode holds the decoder to what a fetch may find in SRAM: for any
// pair of words, Decode returns an error or an instruction that names
// only registers a thread has, re-encodes to words that decode to
// itself, and renders. The seeds are every word, with its successor, of
// the workload package's programs.
func FuzzDecode(f *testing.F) {
	peer := noc.MakeChanEndID(1, 0)
	for _, p := range []*xs1.Program{
		workload.BusyLoop(4, 10), workload.HeavyLoad(4, 10),
		workload.StreamTx(peer, 8), workload.StreamRx(8),
		workload.PingTx(peer, 4), workload.PingRx(peer, 4), workload.LocalPingPong(noc.MakeChanEndID(0, 0), peer, 4),
		workload.PipelineSource(peer, 4), workload.PipelineStage(peer, 4, 1), workload.PipelineSink(4),
		workload.ServerProgram(4), workload.ClientProgram(peer, 4),
		workload.RingInjector(peer), workload.RingRelay(peer),
		workload.BarrierRoot(2, 4), workload.BarrierMember(peer, 4),
	} {
		for i, w0 := range p.Words {
			var w1 uint32
			if i+1 < len(p.Words) {
				w1 = p.Words[i+1]
			}
			f.Add(w0, w1)
		}
	}
	f.Fuzz(func(t *testing.T, w0, w1 uint32) {
		in, err := xs1.Decode(w0, w1)
		if err != nil {
			return
		}
		if max(in.A, in.B, in.C) >= xs1.NumRegs {
			t.Fatalf("%#x decodes to %+v, naming a register past r%d", w0, in, xs1.NumRegs-1)
		}
		words := append(in.Encode(), 0)
		again, err := xs1.Decode(words[0], words[1])
		if err != nil || again != in {
			t.Fatalf("%+v re-encodes to %#x, which decodes to %+v, %v", in, words, again, err)
		}
		_ = in.String()
	})
}
