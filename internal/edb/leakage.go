package edb

import "fmt"

// LeakageClass categorizes encrypted databases by what their *query*
// protocols reveal, following the paper's §6. DP-Sync constrains update
// leakage itself; whether the combined system stays private then depends on
// the query side not re-exposing the dummy/real split.
type LeakageClass int

const (
	// L0 schemes hide both access patterns and response volumes
	// (oblivious + volume-hiding). Directly compatible with DP-Sync.
	L0 LeakageClass = iota
	// LDP schemes reveal only differentially-private volumes/access
	// patterns. Directly compatible with DP-Sync.
	LDP
	// L1 schemes hide access patterns but reveal exact response volumes.
	// Compatible only after adding volume-hiding measures (padding etc.).
	L1
	// L2 schemes reveal exact access patterns. Incompatible: the access
	// pattern would re-leak the update history DP-Sync spends budget hiding.
	L2
)

// String implements fmt.Stringer.
func (c LeakageClass) String() string {
	switch c {
	case L0:
		return "L-0 (volume hiding)"
	case LDP:
		return "L-DP (DP volumes)"
	case L1:
		return "L-1 (reveals volume)"
	case L2:
		return "L-2 (reveals access pattern)"
	default:
		return fmt.Sprintf("LeakageClass(%d)", int(c))
	}
}

// Compatible reports whether a scheme in this class can be combined with
// DP-Sync without further hardening (§6: L-0 and L-DP qualify).
func (c LeakageClass) Compatible() bool {
	return c == L0 || c == LDP
}

// CompatibleWithPadding reports whether the class becomes usable after
// adding volume-hiding countermeasures (naïve padding, PRT, ...).
func (c LeakageClass) CompatibleWithPadding() bool {
	return c.Compatible() || c == L1
}

// Scheme is one entry of the paper's Table 3 taxonomy.
type Scheme struct {
	Name  string
	Class LeakageClass
	Note  string
}

// Table3 returns the paper's leakage-group classification of notable
// encrypted database schemes. The two starred entries are the substrates
// implemented in this repository.
func Table3() []Scheme {
	return []Scheme{
		{"VLH/AVLH (Kamara-Moataz 19)", L0, "volume-hiding structured encryption"},
		{"ObliDB*", L0, "SGX enclave + ORAM (ORAM cost modeled); implemented in internal/oblidb"},
		{"SEAL", L0, "adjustable leakage"},
		{"Opaque", L0, "oblivious distributed analytics"},
		{"CSAGR19", L0, "controllable leakage"},
		{"dp-MM", LDP, "DP multi-maps"},
		{"Hermetic", LDP, "DP side channels"},
		{"KKNO17", LDP, "DP access patterns"},
		{"Cryptε*", LDP, "crypto-assisted DP; implemented in internal/crypte"},
		{"AHKM19", LDP, "encrypted DP databases"},
		{"Shrinkwrap", LDP, "DP intermediate sizes"},
		{"PPQEDa", L1, "HE-based, leaks volumes"},
		{"StealthDB", L1, "TEE, leaks volumes"},
		{"SisoSPIR", L1, "ORAM-based, leaks volumes"},
		{"CryptDB", L2, "property-preserving encryption"},
		{"Cipherbase", L2, "TEE with plaintext access patterns"},
		{"Arx", L2, "index access patterns"},
		{"HardIDX", L2, "SGX index traversal"},
		{"EnclaveDB", L2, "reveals access patterns"},
	}
}

// CheckCompatibility returns an error explaining why db cannot be used with
// DP-Sync, or nil if it qualifies under §6's constraints.
func CheckCompatibility(db Database) error {
	if c := db.Leakage(); !c.Compatible() {
		return fmt.Errorf("edb: %s has leakage class %v, incompatible with DP-Sync without hardening", db.Name(), c)
	}
	return nil
}
