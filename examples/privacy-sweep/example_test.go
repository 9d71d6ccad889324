package main

// Example runs the three seeded sweeps: ε, DP-Timer's period and DP-ANT's
// threshold against query error and dummy count.
func Example() {
	main()
	// Output:
	// === Sweep 1: privacy budget eps (T=30 / theta=15 fixed) ===
	// eps      DP-Timer err/dummies   DP-ANT err/dummies
	// 0.01     15.78   /3091          2.72    /80139
	// 0.1      20.96   /176           2.96    /6987
	// 0.5      6.44    /62            6.11    /602
	// 2        1.39    /58            6.93    /60
	// 10       0.07    /59            7.18    /59
	//
	// === Sweep 2: DP-Timer period T (eps=0.5 fixed) ===
	// T        mean err     dummies
	// 5        4.62         234
	// 15       6.97         78
	// 30       4.88         70
	// 120      20.00        65
	// 480      85.92        46
	//
	// === Sweep 3: DP-ANT threshold theta (eps=0.5 fixed) ===
	// theta    mean err     dummies
	// 2        2.12         1333
	// 8        3.89         930
	// 15       5.21         661
	// 60       26.96        64
	// 240      83.68        68
	//
	// Rule of thumb: pick the largest eps your privacy policy tolerates, then
	// raise T (or theta) until query error approaches your accuracy budget —
	// every extra tick of delay buys fewer dummies and faster queries.
}
