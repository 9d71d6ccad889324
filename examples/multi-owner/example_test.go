package main

// Example runs eight mixed-strategy owners over one gateway connection: SUR
// owners upload once per event plus the setup, DP owners far fewer times.
func Example() {
	main()
	// Output:
	// owner     strategy         ε   events  uploads   Q1 error       gap
	// owner-0   SUR              ∞      300      301        0.0         0
	// owner-1   DP-Timer       0.5      200       24        0.0         0
	// owner-2   DP-ANT         0.5      150       78        0.0         0
	// owner-3   SUR              ∞      120      121        0.0         0
	// owner-4   DP-Timer       0.5      100       23        1.0         5
	// owner-5   DP-ANT         0.5       85       69        0.0         0
	// owner-6   SUR              ∞       75       76        0.0         0
	// owner-7   DP-Timer       0.5       66       21        0.0         0
	//
	// operator's view of owner-0 (SUR, leaks everything): 301 upload events
	// operator's view of owner-1 (DP-Timer, ε=0.5): 24 upload events, first few: (#1, 1) (#2, 8) (#3, 9) (#4, 16)
}
