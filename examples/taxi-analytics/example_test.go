package main

// Example runs the five strategies over one seeded taxi trace and prints
// the privacy/accuracy/performance triangle.
func Example() {
	main()
	// Output:
	// Strategy    Privacy          mean Q2 err   mean QET(s)   dummies
	// --------    -------          -----------   -----------   -------
	// SUR         none (inf-DP)    0.00          0.185         0
	// SET         perfect (0-DP)   0.00          0.346         1240
	// OTO         perfect (0-DP)   469.04        0.071         0
	// DP-Timer    eps=0.5          2.88          0.194         80
	// DP-ANT      eps=0.5          7.29          0.250         501
	//
	// Reading the triangle (paper Fig. 4):
	//   SUR: accurate + fast, zero privacy.
	//   SET: accurate + private, slow (every idle tick uploads a dummy).
	//   OTO: fast + private, wildly inaccurate (nothing after setup).
	//   DP-Timer / DP-ANT: near-SUR accuracy and speed, bounded eps-DP leakage.
}
