package main

// Example runs the program and pins what it prints, so its output
// cannot drift unnoticed.
func Example() {
	main()
	// Output:
	// sink            -> core V(0,2)
	// stage3 (+1000)  -> core H(0,1)
	// stage2 (+100)   -> core V(0,1)
	// stage1 (+10)    -> core H(0,0)
	// source          -> core V(0,0)
	//
	// sink sum: [241900] (expected 241900)
	// end-to-end time: 200.000us for 200 items
	//
	// per-stage cost:
	//   sink               806 instructions  2.27e-05 J
	//   stage3 (+1000)    1008 instructions  2.27e-05 J
	//   stage2 (+100)     1008 instructions  2.27e-05 J
	//   stage1 (+10)      1008 instructions  2.27e-05 J
	//   source             807 instructions  2.27e-05 J
	//
	// network energy: 2.88e-06 J; machine total: 0.000591 J
}
