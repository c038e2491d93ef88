// Package sim provides the discrete-event simulation kernel that every
// other Swallow subsystem is built on.
//
// The kernel models time in integer picoseconds, which is fine enough to
// represent every clock in the system exactly (a 500 MHz core cycle is
// 2000 ps; link symbol clocks divide evenly as well) while keeping event
// ordering exact and platform-independent: two runs of the same simulation
// always produce identical schedules, preserving the time-determinism that
// is the point of the Swallow platform.
//
// Everything is scheduled through a Timer: a reusable callback bound
// once, by Kernel.NewTimer (a closure) or Timer.Init (a Waker embedded
// in its component). Arming, re-arming and disarming a Timer allocates
// nothing, which is what the per-instruction and per-token hot paths
// (instruction issue, link pumps, channel-end wakes) are built on; a
// one-off callback is a NewTimer armed once.
//
// Internally the queue is a two-tier ladder: a bucketed near-future
// wheel with roughly core-cycle granularity, backed by an overflow heap
// for far-future events. See kernel.go.
package sim

import (
	"fmt"
	"math"
)

// Time is a simulation timestamp in picoseconds.
type Time int64

// Common time units expressed in picoseconds.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * 1000
	Millisecond Time = 1000 * 1000 * 1000
	Second      Time = 1000 * 1000 * 1000 * 1000
)

// Seconds converts a timestamp to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Nanoseconds converts a timestamp to floating-point nanoseconds.
func (t Time) Nanoseconds() float64 { return float64(t) / float64(Nanosecond) }

func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6fs", t.Seconds())
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.3fns", t.Nanoseconds())
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Clock converts between a component clock frequency and kernel time.
// Frequencies are stored in kHz so that every frequency the platform uses
// (71-500 MHz cores, fractional link clocks) has an exact integer period
// representation check at construction.
type Clock struct {
	freqKHz  int64
	periodPS Time
}

// NewClock builds a clock from a frequency in MHz. Frequencies are
// rounded to the nearest kHz and periods to the nearest picosecond; at
// 1 ps resolution the period error is below 0.1% for every frequency
// the platform uses.
func NewClock(freqMHz float64) Clock {
	if freqMHz <= 0 {
		panic("sim: clock frequency must be positive")
	}
	khz := int64(math.Round(freqMHz * 1000))
	// One cycle at f MHz lasts 1e6/f ps (1 MHz -> 1 us -> 1e6 ps).
	period := Time(1e6/freqMHz + 0.5)
	return Clock{freqKHz: khz, periodPS: period}
}

// FreqMHz reports the clock frequency in MHz.
func (c Clock) FreqMHz() float64 { return float64(c.freqKHz) / 1000 }

// Period reports the duration of one clock cycle.
func (c Clock) Period() Time { return c.periodPS }

// Cycles converts a cycle count to kernel time.
func (c Clock) Cycles(n int64) Time { return Time(n) * c.periodPS }
