package main

// Example runs the program and pins what it prints, so its output
// cannot drift unnoticed.
func Example() {
	main()
	// Output:
	// 8 flows crossing the slice's vertical bisection (4 links of 62.5 Mbit/s)
	//
	// aggregate C across bisection: 245.1 Mbit/s (raw capacity 250)
	// execution rate E of 8 cores:  128 Gbit/s
	// EC ratio:                     522 (paper: 512, "which is undesirable")
	//
	// per-flow goodput (packets interleave fairly over the shared links):
	//   flow 0:  30.25 Mbit/s, first-token latency 16.434us
	//   flow 1:  31.02 Mbit/s, first-token latency 526.000ns
	//   flow 2:  30.25 Mbit/s, first-token latency 16.434us
	//   flow 3:  31.02 Mbit/s, first-token latency 526.000ns
	//   flow 4:  30.25 Mbit/s, first-token latency 16.434us
	//   flow 5:  31.02 Mbit/s, first-token latency 526.000ns
	//   flow 6:  30.25 Mbit/s, first-token latency 16.434us
	//   flow 7:  31.02 Mbit/s, first-token latency 526.000ns
	//
	// same traffic kept package-local: 1997 Mbit/s aggregate, EC = 64
}
