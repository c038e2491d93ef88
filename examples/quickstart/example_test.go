package main

// Example runs the program and pins what it prints, so its output
// cannot drift unnoticed.
func Example() {
	main()
	// Output:
	// debug trace:   [5050]
	// console:       "5050"
	// instructions:  354
	// core energy:   1.18e-06 J over 10.000us
	// wall power:    2.94 W (whole slice, mostly idle cores)
}
