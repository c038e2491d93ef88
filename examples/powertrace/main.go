// Powertrace: energy transparency in action. A program running on a
// fully loaded slice is measured through the simulated shunt/ADC
// daughter-board while an adaptive governor reads the samples and moves
// the slice's clock: the platform's self-measurement path ("a program
// that can measure its own power consumption and adapt to the results",
// Section II). The frequency sweep under load is Fig. 3 (swallow-tables
// -only fig3) and the rails of a loaded slice are cmd/swallow-power.
//
//	go run ./examples/powertrace
package main

import (
	"fmt"
	"log"

	"swallow/internal/core"
	"swallow/internal/sim"
	"swallow/internal/workload"
)

func main() {
	log.SetFlags(0)

	// Run a load, sample the board mid-flight, and emulate a governor
	// that drops the clock when the slice exceeds a power budget.
	fmt.Println("adaptive governor, 4.0 W slice budget:")
	m, err := core.New(1, 1, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.LoadAll(workload.HeavyLoad(4, 500000)); err != nil {
		log.Fatal(err)
	}
	freq := 500.0
	m.RunFor(50 * sim.Microsecond)
	m.Board(0).SampleAll()
	for step := 0; step < 8; step++ {
		m.RunFor(200 * sim.Microsecond)
		smp := m.Board(0).SampleAll()
		wall := smp.TotalInputW()
		fmt.Printf("  t=%8v  f=%3.0f MHz  wall=%.2f W", m.K.Now(), freq, wall)
		switch {
		case wall > 4.0 && freq > 71:
			freq -= 100
			if freq < 71 {
				freq = 71
			}
			if err := m.SetAllFrequencies(freq); err != nil {
				log.Fatal(err)
			}
			fmt.Print("  -> over budget, scaling down")
		case wall < 3.5 && freq < 500:
			freq += 50
			if err := m.SetAllFrequencies(freq); err != nil {
				log.Fatal(err)
			}
			fmt.Print("  -> headroom, scaling up")
		}
		fmt.Println()
	}
}
