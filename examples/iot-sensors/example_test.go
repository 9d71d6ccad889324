package main

// Example replays the paper's §1 attack: the admin reads the resident's
// floor off SUR's upload times and fails against DP-Timer's seeded schedule.
func Example() {
	main()
	// Output:
	// === The update-pattern attack (paper §1) ===
	//
	// --- Owner syncs upon receipt (SUR) ---
	// server-observed pattern: {(0, 0), (100, 1), (110, 1), (120, 1)}
	// admin: three uploads at 100, 110, 120 — 10 ticks apart.
	// admin: only floor 3 has that sensor spacing. The resident went to FLOOR 3.
	//
	// --- Owner syncs under DP-Timer (eps=0.5, T=30) ---
	// server-observed pattern: {(0, 0), (30, 5), (120, 4), (180, 5), (240, 2)}
	// admin: no floor signature in the upload times; inference FAILED.
	//
	// The DP-Timer pattern is a fixed 30-tick grid with noisy volumes —
	// the same transcript distribution whether the resident went to floor 3,
	// another floor, or stayed home (ε-indistinguishable by Definition 5).
}
