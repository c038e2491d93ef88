package power

import (
	"math"
	"testing"
	"testing/quick"

	"swallow/internal/sim"
)

// rampMeter returns a meter accruing watts linearly with kernel time.
func rampMeter(k *sim.Kernel, watts float64) Meter {
	return func() float64 { return watts * k.Now().Seconds() }
}

func TestSupplyValidation(t *testing.T) {
	if _, err := NewSupply("x", 0, 5, 0.9); err == nil {
		t.Error("zero output voltage accepted")
	}
	if _, err := NewSupply("x", 5, 1, 0.9); err == nil {
		t.Error("boost topology accepted (in < out)")
	}
	if _, err := NewSupply("x", 1, 5, 1.5); err == nil {
		t.Error("efficiency > 1 accepted")
	}
	if _, err := NewSupply("x", 1, 5, 0.85); err != nil {
		t.Errorf("valid supply rejected: %v", err)
	}
}

func TestSupplyEnergyAggregation(t *testing.T) {
	k := sim.NewKernel()
	s, _ := NewSupply("1V-A", 1, 5, 0.8)
	s.Attach(rampMeter(k, 0.193))
	s.Attach(rampMeter(k, 0.193))
	k.RunFor(sim.Second)
	if got := s.OutputEnergyJ(); math.Abs(got-0.386) > 1e-9 {
		t.Errorf("output energy = %v, want 0.386", got)
	}
	if got := s.InputEnergyJ(); math.Abs(got-0.4825) > 1e-9 {
		t.Errorf("input energy = %v, want 0.4825 (80%% efficiency)", got)
	}
	if len(s.loads) != 2 {
		t.Errorf("loads = %d", len(s.loads))
	}
}

func TestShuntAmpRoundTrip(t *testing.T) {
	sa := ShuntAmp{ShuntOhms: 0.05, Gain: 20}
	f := func(mA uint16) bool {
		i := float64(mA) / 1000
		return math.Abs(sa.CurrentFor(sa.SenseVolts(i))-i) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// 1 A -> 50 mV -> 1 V at the ADC.
	if v := sa.SenseVolts(1.0); math.Abs(v-1.0) > 1e-12 {
		t.Errorf("SenseVolts(1A) = %v, want 1.0", v)
	}
}

func TestADCQuantization(t *testing.T) {
	a := ADC{Bits: 12, VRef: 3.3}
	if a.Levels() != 4096 {
		t.Fatalf("levels = %d", a.Levels())
	}
	lsb := 3.3 / 4095
	// Reconstruction error is at most half an LSB in-range.
	for _, v := range []float64{0, 0.001, 0.5, 1.65, 3.2, 3.3} {
		_, back := a.Quantize(v)
		if math.Abs(back-v) > lsb/2+1e-12 {
			t.Errorf("quantize(%v) reconstructed %v (err %v > lsb/2)", v, back, math.Abs(back-v))
		}
	}
	// Clipping.
	if code, back := a.Quantize(-1); code != 0 || back != 0 {
		t.Error("negative input did not clip to 0")
	}
	if code, _ := a.Quantize(99); code != 4095 {
		t.Error("overrange input did not clip to full scale")
	}
}

func TestBoardSampleReconstructsPower(t *testing.T) {
	k := sim.NewKernel()
	s, _ := NewSupply("1V-A", 1, 5, 0.8)
	// Four cores at 193 mW: 772 mW output.
	for i := 0; i < 4; i++ {
		s.Attach(rampMeter(k, 0.193))
	}
	b, err := NewBoard(k, []*Supply{s})
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(sim.Millisecond)
	smp := b.SampleAll()
	if math.Abs(smp.OutputW[0]-0.772) > 0.002 {
		t.Errorf("output power = %v, want ~0.772", smp.OutputW[0])
	}
	if math.Abs(smp.InputW[0]-0.772/0.8) > 0.003 {
		t.Errorf("input power = %v, want ~0.965", smp.InputW[0])
	}
	if smp.Codes[0] <= 0 {
		t.Error("ADC code not positive")
	}
	if math.Abs(smp.TotalInputW()-smp.InputW[0]) > 1e-12 {
		t.Error("TotalInputW mismatch for single channel")
	}
}

func TestBoardWindowing(t *testing.T) {
	// Power changes between windows must show up per-window.
	k := sim.NewKernel()
	level := 0.1
	var acc float64
	last := sim.Time(0)
	meter := func() float64 {
		acc += level * (k.Now() - last).Seconds()
		last = k.Now()
		return acc
	}
	s, _ := NewSupply("1V-A", 1, 5, 1.0)
	s.Attach(meter)
	b, _ := NewBoard(k, []*Supply{s})
	k.RunFor(sim.Millisecond)
	s1 := b.SampleAll()
	level = 0.4
	k.RunFor(sim.Millisecond)
	s2 := b.SampleAll()
	if math.Abs(s1.OutputW[0]-0.1) > 0.002 || math.Abs(s2.OutputW[0]-0.4) > 0.002 {
		t.Errorf("windowed powers = %v, %v; want 0.1 then 0.4", s1.OutputW[0], s2.OutputW[0])
	}
}

func TestTraceRateLimits(t *testing.T) {
	k := sim.NewKernel()
	s1v, _ := NewSupply("1V-A", 1, 5, 0.8)
	s3v, _ := NewSupply("3V3", 3.3, 5, 0.85)
	single, _ := NewBoard(k, []*Supply{s1v})
	multi, _ := NewBoard(k, []*Supply{s1v, s3v})
	if _, err := single.StartTrace(2e6, 4); err != nil {
		t.Errorf("2 MS/s single channel rejected: %v", err)
	}
	if _, err := single.StartTrace(2.5e6, 4); err == nil {
		t.Error("2.5 MS/s single channel accepted")
	}
	if _, err := multi.StartTrace(1e6, 4); err != nil {
		t.Errorf("1 MS/s all channels rejected: %v", err)
	}
	if _, err := multi.StartTrace(1.5e6, 4); err == nil {
		t.Error("1.5 MS/s all channels accepted")
	}
	if _, err := multi.StartTrace(1e3, 0); err == nil {
		t.Error("zero-sample trace accepted")
	}
}

func TestTraceCollects(t *testing.T) {
	k := sim.NewKernel()
	s, _ := NewSupply("1V-A", 1, 5, 1.0)
	s.Attach(rampMeter(k, 0.5))
	b, _ := NewBoard(k, []*Supply{s})
	tr, err := b.StartTrace(1e6, 100)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(sim.Millisecond)
	if len(tr.Samples) != 100 {
		t.Fatalf("collected %d samples, want 100", len(tr.Samples))
	}
	// Samples are 1 us apart.
	dt := tr.Samples[1].T - tr.Samples[0].T
	if dt != sim.Microsecond {
		t.Errorf("sample spacing = %v, want 1us", dt)
	}
	if math.Abs(tr.MeanInputW()-0.5) > 0.005 {
		t.Errorf("mean power = %v, want 0.5", tr.MeanInputW())
	}
}

// TestTraceTickZeroAlloc pins a warm trace tick at zero allocations: the
// samples and their channels are sized when the trace starts.
func TestTraceTickZeroAlloc(t *testing.T) {
	k := sim.NewKernel()
	var supplies []*Supply
	for _, name := range []string{"1V-A", "1V-B", "3V3"} {
		s, _ := NewSupply(name, 1, 5, 0.9)
		s.Attach(rampMeter(k, 0.5))
		supplies = append(supplies, s)
	}
	b, _ := NewBoard(k, supplies)
	tr, err := b.StartTrace(1e6, 1000)
	if err != nil {
		t.Fatal(err)
	}
	k.RunFor(10 * sim.Microsecond)
	before := len(tr.Samples)
	if avg := testing.AllocsPerRun(100, func() { k.RunFor(sim.Microsecond) }); avg > 0 {
		t.Errorf("a trace tick allocates %.2f times, want 0", avg)
	}
	if got := len(tr.Samples) - before; got != 101 {
		t.Fatalf("measured runs took %d samples, want 101", got)
	}
	s := tr.Samples[len(tr.Samples)-1]
	if len(s.InputW) != 3 || cap(s.InputW) != 3 || len(s.Codes) != 3 || s.InputW[0] == 0 {
		t.Errorf("last sample's channels: %v %v, want three each, powered", s.InputW, s.Codes)
	}
}

func TestTraceStop(t *testing.T) {
	k := sim.NewKernel()
	s, _ := NewSupply("1V-A", 1, 5, 1.0)
	s.Attach(rampMeter(k, 0.5))
	b, _ := NewBoard(k, []*Supply{s})
	tr, _ := b.StartTrace(1e6, 1000)
	k.RunFor(10 * sim.Microsecond)
	tr.Stop()
	k.RunFor(sim.Millisecond)
	if len(tr.Samples) > 12 {
		t.Errorf("trace kept sampling after Stop: %d samples", len(tr.Samples))
	}
}

func TestEmptyBoardRejected(t *testing.T) {
	if _, err := NewBoard(sim.NewKernel(), nil); err == nil {
		t.Error("empty board accepted")
	}
}

func TestEmptyTraceMean(t *testing.T) {
	var tr Trace
	if tr.MeanInputW() != 0 {
		t.Error("empty trace mean not zero")
	}
}
