package main

// Example runs the program and pins what it prints, so its output
// cannot drift unnoticed.
func Example() {
	main()
	// Output:
	// bridge attached at V(0,3), host address chan(0300:30)
	// booted 16 cores: 896 image bytes in 160.000us (44.8 Mbit/s effective), 3.27e-06 J of link energy
	// 16/16 cores ran the booted image correctly
}
