package main

// Example runs the program and pins what it prints, so its output
// cannot drift unnoticed.
func Example() {
	main()
	// Output:
	// adaptive governor, 4.0 W slice budget:
	//   t=250.000us  f=500 MHz  wall=4.50 W  -> over budget, scaling down
	//   t=450.000us  f=400 MHz  wall=3.93 W
	//   t=650.000us  f=400 MHz  wall=3.93 W
	//   t=850.000us  f=400 MHz  wall=3.93 W
	//   t=1050.000us  f=400 MHz  wall=3.93 W
	//   t=1250.000us  f=400 MHz  wall=3.93 W
	//   t=1450.000us  f=400 MHz  wall=3.93 W
	//   t=1650.000us  f=400 MHz  wall=3.93 W
}
