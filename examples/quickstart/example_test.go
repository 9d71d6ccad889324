package main

// Example runs the owner lifecycle with seeded noise and prints what the
// server observed.
func Example() {
	main()
	// Output:
	// records received by owner:   42
	// records on server (real):    40
	// logical gap (still cached):  2
	// Q2 answer total:             40 (truth 42, L1 error 2)
	// modeled query time:          0.084s over 53 ciphertexts
	// what the server observed:    10 uploads, 53 ciphertexts total
	// update pattern transcript:   {(0, 2), (60, 6), (90, 3), (120, 11), (150, 8), (180, 4), (210, 6), (240, 7), (270, 2), (300, 4)}
}
