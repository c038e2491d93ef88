// Package power models Swallow's energy-measurement subsystem: the five
// switch-mode supplies per slice, the shunt resistors and differential
// amplifiers on each supply output, and the multi-channel ADC
// daughter-board that samples them (Section II of the paper).
//
// The resulting system measures individual supply power at up to
// 2 MS/s for a single channel, or 1 MS/s when all supplies are sampled
// simultaneously. Measurement data can be consumed on the slice itself,
// allowing a program to read its own power and adapt - the paper's
// "energy transparency" in its most literal form.
package power

import (
	"fmt"
	"math"

	"swallow/internal/sim"
	"swallow/internal/trace"
)

// Meter reports a cumulative energy counter in joules. Cores, link
// fabrics and support logic all expose this shape.
type Meter func() float64

// Supply is one switch-mode converter: loads hang off its output and
// conversion inefficiency appears at its input.
type Supply struct {
	// Name identifies the rail, e.g. "1V-A" or "3V3-IO".
	Name string
	// OutVolts is the regulated output voltage.
	OutVolts float64
	// InVolts is the upstream rail (5 V main on Swallow slices).
	InVolts float64
	// Efficiency is output/input power.
	Efficiency float64

	loads []Meter
}

// NewSupply builds a supply.
func NewSupply(name string, outV, inV, efficiency float64) (*Supply, error) {
	if outV <= 0 || inV < outV {
		return nil, fmt.Errorf("power: supply %s voltages out=%v in=%v invalid", name, outV, inV)
	}
	if efficiency <= 0 || efficiency > 1 {
		return nil, fmt.Errorf("power: supply %s efficiency %v invalid", name, efficiency)
	}
	return &Supply{Name: name, OutVolts: outV, InVolts: inV, Efficiency: efficiency}, nil
}

// Attach adds a load to the supply output.
func (s *Supply) Attach(m Meter) { s.loads = append(s.loads, m) }

// OutputEnergyJ sums the cumulative energy of all loads.
func (s *Supply) OutputEnergyJ() float64 {
	e := 0.0
	for _, m := range s.loads {
		e += m()
	}
	return e
}

// InputEnergyJ is the energy drawn from the 5 V rail, including
// conversion loss.
func (s *Supply) InputEnergyJ() float64 {
	return s.OutputEnergyJ() / s.Efficiency
}

// ShuntAmp is the sense chain on one supply output: a shunt resistor
// and a sensitive differential amplifier.
type ShuntAmp struct {
	// ShuntOhms is the sense resistance.
	ShuntOhms float64
	// Gain is the amplifier voltage gain.
	Gain float64
}

// SenseVolts converts a load current to the amplifier output voltage.
func (sa ShuntAmp) SenseVolts(currentA float64) float64 {
	return currentA * sa.ShuntOhms * sa.Gain
}

// CurrentFor inverts SenseVolts.
func (sa ShuntAmp) CurrentFor(senseV float64) float64 {
	return senseV / (sa.ShuntOhms * sa.Gain)
}

// ADC is the daughter-board's analogue-to-digital converter.
type ADC struct {
	// Bits is the converter resolution.
	Bits int
	// VRef is the full-scale input voltage.
	VRef float64
}

// Levels is the number of quantisation steps.
func (a ADC) Levels() int { return 1 << a.Bits }

// Quantize converts a voltage to its ADC code and the voltage that code
// reconstructs to. Inputs clip at the rails.
func (a ADC) Quantize(v float64) (code int, reconstructed float64) {
	lsb := a.VRef / float64(a.Levels()-1)
	code = int(math.Round(v / lsb))
	if code < 0 {
		code = 0
	}
	if code >= a.Levels() {
		code = a.Levels() - 1
	}
	return code, float64(code) * lsb
}

// Measurement rate limits from Section II.
const (
	// MaxSingleChannelHz is the peak sampling rate for one supply.
	MaxSingleChannelHz = 2e6
	// MaxAllChannelHz is the rate when all supplies sample
	// simultaneously.
	MaxAllChannelHz = 1e6
)

// Sample is one multi-channel power reading.
type Sample struct {
	// T is the sample timestamp.
	T sim.Time
	// InputW is the reconstructed input-side power per channel.
	InputW []float64
	// OutputW is the reconstructed output-side power per channel.
	OutputW []float64
	// Codes are the raw ADC codes per channel.
	Codes []int
}

// TotalInputW sums channel input powers.
func (s Sample) TotalInputW() float64 {
	t := 0.0
	for _, w := range s.InputW {
		t += w
	}
	return t
}

// Board is the measurement daughter-board: shunt/amplifier chains and a
// shared ADC sampling a set of supplies.
type Board struct {
	k        *sim.Kernel
	Supplies []*Supply
	Sense    ShuntAmp
	Conv     ADC

	// window state per channel for average-power reconstruction.
	lastE []float64
	lastT sim.Time

	// traceIdx identifies the board on the flight recorder's tracks;
	// the machine assembling the power tree assigns it.
	traceIdx int32
}

// SetTraceIndex names the board for flight-recorder events.
func (b *Board) SetTraceIndex(i int) { b.traceIdx = int32(i) }

// NewBoard builds the daughter-board over a slice's supplies. The
// default chain (50 mOhm shunt, gain 20, 12-bit ADC over 3.3 V) spans
// the 0-3.3 A range a four-core 1 V rail can draw.
func NewBoard(k *sim.Kernel, supplies []*Supply) (*Board, error) {
	if len(supplies) == 0 {
		return nil, fmt.Errorf("power: board needs at least one supply")
	}
	b := &Board{
		k:        k,
		Supplies: supplies,
		Sense:    ShuntAmp{ShuntOhms: 0.050, Gain: 20},
		Conv:     ADC{Bits: 12, VRef: 3.3},
		lastE:    make([]float64, len(supplies)),
		lastT:    k.Now(),
	}
	for i, s := range supplies {
		b.lastE[i] = s.OutputEnergyJ()
	}
	return b, nil
}

// BoardSnapshot captures a board's averaging-window state: the last
// sample time and per-channel energy baselines.
type BoardSnapshot struct {
	lastE []float64
	lastT sim.Time
}

// Snapshot captures the board's averaging window.
func (b *Board) Snapshot() *BoardSnapshot {
	return &BoardSnapshot{
		lastE: append([]float64(nil), b.lastE...),
		lastT: b.lastT,
	}
}

// Restore rewinds the averaging window to a prior Snapshot. It reuses
// the board's baseline slice, so restoring allocates nothing.
func (b *Board) Restore(s *BoardSnapshot) {
	copy(b.lastE, s.lastE)
	b.lastT = s.lastT
}

// SampleAll measures every channel's average power since the previous
// sample through the full shunt -> amplifier -> ADC chain. The first
// call after construction averages from board attach time.
func (b *Board) SampleAll() Sample {
	n := len(b.Supplies)
	smp := Sample{InputW: make([]float64, n), OutputW: make([]float64, n), Codes: make([]int, n)}
	b.sampleInto(&smp)
	return smp
}

// sampleInto is SampleAll into smp's own per-channel slices, one entry
// per supply each.
func (b *Board) sampleInto(smp *Sample) {
	now := b.k.Now()
	dt := (now - b.lastT).Seconds()
	smp.T = now
	for i, s := range b.Supplies {
		e := s.OutputEnergyJ()
		var outW float64
		if dt > 0 {
			outW = (e - b.lastE[i]) / dt
		}
		b.lastE[i] = e
		// Through the measurement chain: power -> current -> sense
		// voltage -> ADC -> reconstructed.
		current := outW / s.OutVolts
		code, backV := b.Conv.Quantize(b.Sense.SenseVolts(current))
		backI := b.Sense.CurrentFor(backV)
		backOutW := backI * s.OutVolts
		smp.Codes[i] = code
		smp.OutputW[i] = backOutW
		smp.InputW[i] = backOutW / s.Efficiency
	}
	b.lastT = now
	if rec := b.k.Recorder(); rec != nil {
		rec.Emit(int64(now), trace.KindPowerSample, b.traceIdx,
			int64(math.Float64bits(smp.TotalInputW())), 0)
	}
}

// Trace is a periodic sampling session.
type Trace struct {
	// Samples accumulates readings in time order.
	Samples []Sample
	stopped bool
	tick    *sim.Timer
}

// Stop ends the session, disarming the pending sample.
func (t *Trace) Stop() {
	t.stopped = true
	if t.tick != nil {
		t.tick.Disarm()
	}
}

// StartTrace samples all channels periodically at rateHz. Rates beyond
// the daughter-board's capability are rejected: 2 MS/s applies to a
// single-supply board, 1 MS/s to multi-channel boards.
func (b *Board) StartTrace(rateHz float64, n int) (*Trace, error) {
	limit := MaxAllChannelHz
	if len(b.Supplies) == 1 {
		limit = MaxSingleChannelHz
	}
	if rateHz <= 0 || rateHz > limit {
		return nil, fmt.Errorf("power: rate %.3g Hz outside (0, %.3g]", rateHz, limit)
	}
	if n <= 0 {
		return nil, fmt.Errorf("power: trace needs a positive sample count")
	}
	// The session's n samples are sized once: Samples to n, and each
	// sample's channels are views into three flat arrays of n rows.
	ch := len(b.Supplies)
	tr := &Trace{Samples: make([]Sample, 0, n)}
	in, out, codes := make([]float64, n*ch), make([]float64, n*ch), make([]int, n*ch)
	period := sim.Time(1e12 / rateHz)
	// One timer carries the whole session: each tick re-arms it and
	// fills the next row, so a tick allocates nothing.
	tr.tick = b.k.NewTimer(func() {
		if tr.stopped {
			return
		}
		i, j := len(tr.Samples)*ch, (len(tr.Samples)+1)*ch
		smp := Sample{InputW: in[i:j:j], OutputW: out[i:j:j], Codes: codes[i:j:j]}
		b.sampleInto(&smp)
		tr.Samples = append(tr.Samples, smp)
		if len(tr.Samples) < n {
			tr.tick.ArmAfter(period)
		}
	})
	tr.tick.ArmAfter(period)
	return tr, nil
}

// MeanInputW averages total input power across a trace's samples.
func (t *Trace) MeanInputW() float64 {
	if len(t.Samples) == 0 {
		return 0
	}
	sum := 0.0
	for _, s := range t.Samples {
		sum += s.TotalInputW()
	}
	return sum / float64(len(t.Samples))
}
