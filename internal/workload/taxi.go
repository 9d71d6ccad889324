// Package workload generates the evaluation datasets. The paper uses the
// June 2020 NYC TLC Yellow Cab and Green Boro trip records — real data this
// repository cannot ship — so it substitutes a calibrated synthetic
// generator that preserves every property the experiments consume:
//
//   - exact record counts (Yellow 18,429; Green 21,300) over the same
//     horizon (43,200 one-minute ticks = 30 days);
//   - at most one record per tick per dataset (the paper's per-minute
//     dedup), making arrival traces valid Definition-4 growing databases;
//   - a diurnal double-peak arrival intensity (morning/evening taxi rush)
//     so the DP strategies face realistic bursts and lulls;
//   - a skewed pickup-location marginal over the 265 TLC zones (busy
//     Manhattan zones dominate), which shapes Q1/Q2 answers.
//
// Generation is deterministic given a seed, so experiments reproduce.
package workload

import (
	"fmt"
	"math"
	mrand "math/rand/v2"
	"sort"

	"dpsync/internal/leakage"
	"dpsync/internal/record"
)

// Defaults matching the paper's datasets.
const (
	// JuneHorizon is 30 days of one-minute ticks.
	JuneHorizon record.Tick = 43_200
	// YellowRecords is the post-dedup June 2020 Yellow Cab record count.
	YellowRecords = 18_429
	// GreenRecords is the post-dedup June 2020 Green Boro record count.
	GreenRecords = 21_300
	// zoneSkew is the Zipf exponent of the pickup-location marginal: about 1
	// matches taxi-zone concentration.
	zoneSkew = 1.0
)

// Config parameterizes trace generation.
type Config struct {
	Provider record.Provider
	// Horizon is the number of ticks (default JuneHorizon).
	Horizon record.Tick
	// Records is the exact number of arrivals to place (default per
	// provider: YellowRecords / GreenRecords).
	Records int
	// Seed drives the deterministic generator.
	Seed uint64
}

// Trace is one dataset's arrival sequence: at most one record per tick,
// sorted by arrival tick, record PickupTime equal to the arrival tick.
type Trace struct {
	Provider record.Provider
	Horizon  record.Tick
	Records  []record.Record

	byTick map[record.Tick]int
}

// Generate builds a trace. Arrival ticks are drawn by weighted sampling
// without replacement (Efraimidis–Spirakis exponential keys) against the
// diurnal intensity profile, guaranteeing exactly cfg.Records arrivals.
func Generate(cfg Config) (*Trace, error) {
	if cfg.Provider == 0 {
		return nil, fmt.Errorf("workload: missing provider")
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = JuneHorizon
	}
	if cfg.Records <= 0 {
		switch cfg.Provider {
		case record.GreenTaxi:
			cfg.Records = GreenRecords
		default:
			cfg.Records = YellowRecords
		}
	}
	if cfg.Records > int(cfg.Horizon) {
		return nil, fmt.Errorf("workload: %d records cannot fit in %d ticks at one per tick", cfg.Records, cfg.Horizon)
	}
	rng := mrand.New(mrand.NewPCG(cfg.Seed, cfg.Seed^0xda7a5e7))

	// Weighted sampling without replacement: key_i = u^(1/w_i), keep the
	// cfg.Records largest keys.
	type keyed struct {
		tick record.Tick
		key  float64
	}
	keys := make([]keyed, cfg.Horizon)
	for i := record.Tick(0); i < cfg.Horizon; i++ {
		w := Intensity(i)
		u := rng.Float64()
		for u == 0 {
			u = rng.Float64()
		}
		keys[i] = keyed{tick: i + 1, key: math.Pow(u, 1/w)}
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a].key > keys[b].key })
	chosen := keys[:cfg.Records]
	sort.Slice(chosen, func(a, b int) bool { return chosen[a].tick < chosen[b].tick })

	zones := newZipfZones(rng)
	tr := &Trace{Provider: cfg.Provider, Horizon: cfg.Horizon}
	tr.Records = make([]record.Record, cfg.Records)
	for i, k := range chosen {
		tr.Records[i] = record.Record{
			PickupTime: k.tick,
			PickupID:   zones.sample(rng),
			Provider:   cfg.Provider,
			FareCents:  500 + uint32(rng.IntN(4500)),
		}
	}
	tr.index()
	return tr, nil
}

// YellowJune returns the Yellow Cab stand-in trace.
func YellowJune(seed uint64) *Trace {
	tr, err := Generate(Config{Provider: record.YellowCab, Seed: seed})
	if err != nil {
		// Config is fully valid by construction.
		panic(err)
	}
	return tr
}

// GreenJune returns the Green Boro stand-in trace.
func GreenJune(seed uint64) *Trace {
	tr, err := Generate(Config{Provider: record.GreenTaxi, Seed: seed})
	if err != nil {
		panic(err)
	}
	return tr
}

// Intensity is the diurnal arrival-intensity profile: a weekday base with
// morning (8:30) and evening (18:00) peaks and a deep night lull. Its
// absolute scale is irrelevant — only ratios matter for the weighted
// sampling.
func Intensity(t record.Tick) float64 {
	minuteOfDay := float64(t % 1440)
	h := minuteOfDay / 60
	morning := 2.2 * math.Exp(-((h-8.5)*(h-8.5))/(2*1.8*1.8))
	evening := 2.8 * math.Exp(-((h-18.0)*(h-18.0))/(2*2.2*2.2))
	night := 0.35 + 0.65*math.Exp(-((h-3.5)*(h-3.5))/(2*2.0*2.0))*(-0.6)
	base := 1.0 + morning + evening + night
	if base < 0.05 {
		base = 0.05
	}
	// Mild weekend damping: days 6, 7, 13, 14, ... are ~20% quieter.
	day := int(t / 1440)
	if wd := day % 7; wd == 5 || wd == 6 {
		base *= 0.8
	}
	return base
}

func (tr *Trace) index() {
	tr.byTick = make(map[record.Tick]int, len(tr.Records))
	for i, r := range tr.Records {
		tr.byTick[r.PickupTime] = i
	}
}

// ArrivalAt returns the record arriving at tick t, if any.
func (tr *Trace) ArrivalAt(t record.Tick) (record.Record, bool) {
	i, ok := tr.byTick[t]
	if !ok {
		return record.Record{}, false
	}
	return tr.Records[i], true
}

// Arrivals flattens the trace into the leakage package's bit-vector form.
func (tr *Trace) Arrivals() leakage.Arrivals {
	u := make(leakage.Arrivals, tr.Horizon)
	for _, r := range tr.Records {
		u[r.PickupTime-1] = true
	}
	return u
}

// Len returns the number of records.
func (tr *Trace) Len() int { return len(tr.Records) }

// CountUpTo returns |D_t|: the number of records with PickupTime ≤ t.
func (tr *Trace) CountUpTo(t record.Tick) int {
	// Records are sorted by PickupTime.
	return sort.Search(len(tr.Records), func(i int) bool {
		return tr.Records[i].PickupTime > t
	})
}

// zipfZones samples pickup-location IDs with a Zipf(zoneSkew) marginal over a
// seed-shuffled zone permutation (so the "busy" zones differ per seed).
type zipfZones struct {
	cdf  []float64
	perm []uint16
}

func newZipfZones(rng *mrand.Rand) *zipfZones {
	z := &zipfZones{
		cdf:  make([]float64, record.NumLocations),
		perm: make([]uint16, record.NumLocations),
	}
	total := 0.0
	for i := 0; i < record.NumLocations; i++ {
		total += 1 / math.Pow(float64(i+1), zoneSkew)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	for i := range z.perm {
		z.perm[i] = uint16(i + 1)
	}
	rng.Shuffle(len(z.perm), func(i, j int) { z.perm[i], z.perm[j] = z.perm[j], z.perm[i] })
	return z
}

func (z *zipfZones) sample(rng *mrand.Rand) uint16 {
	u := rng.Float64()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.perm) {
		i = len(z.perm) - 1
	}
	return z.perm[i]
}
