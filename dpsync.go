package dpsync

import (
	"dpsync/internal/cache"
	"dpsync/internal/core"
	"dpsync/internal/crypte"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/leakage"
	"dpsync/internal/oblidb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
)

// Core data types, re-exported from the implementation packages.
type (
	// Record is one relational row of the growing database.
	Record = record.Record
	// Tick is the discrete timestamp unit (the paper's "time unit").
	Tick = record.Tick
	// Provider identifies a logical table.
	Provider = record.Provider

	// Query is an analyst request; Answer its result.
	Query = query.Query
	// Answer holds a query result (scalar or per-location groups).
	Answer = query.Answer

	// Strategy is a synchronization policy.
	Strategy = strategy.Strategy
	// TimerConfig parameterizes DP-Timer (Algorithm 1).
	TimerConfig = strategy.TimerConfig
	// ANTConfig parameterizes DP-ANT (Algorithm 3).
	ANTConfig = strategy.ANTConfig

	// Database is the encrypted-database abstraction (Definition 1).
	Database = edb.Database
	// Cost is a query's modeled execution cost.
	Cost = edb.Cost
	// LeakageClass is the §6 query-leakage taxonomy.
	LeakageClass = edb.LeakageClass
	// StorageStats accounts for the outsourced structure.
	StorageStats = edb.StorageStats

	// Owner is the data-owner runtime: cache + strategy + EDB protocols.
	Owner = core.Owner
	// Config assembles an Owner.
	Config = core.Config

	// UpdatePattern is the server-observable upload transcript.
	UpdatePattern = leakage.Pattern

	// NoiseSource supplies randomness for DP noise.
	NoiseSource = dp.Source
)

// Providers of the bundled evaluation schema.
const (
	YellowCab = record.YellowCab
	GreenTaxi = record.GreenTaxi
	// NumLocations is the pickup-zone domain size.
	NumLocations = record.NumLocations
)

// Leakage classes (§6).
const (
	L0  = edb.L0
	LDP = edb.LDP
	L1  = edb.L1
	L2  = edb.L2
)

// Cache orders for Config.Order.
const (
	FIFO = cache.FIFO
	LIFO = cache.LIFO
)

// New builds a data owner from cfg. The database's leakage class must be
// DP-Sync compatible (L-0 or L-DP).
func New(cfg Config) (*Owner, error) { return core.New(cfg) }

// NewSUR returns the synchronize-upon-receipt baseline (no privacy).
func NewSUR() Strategy { return strategy.NewSUR() }

// NewOTO returns the one-time-outsourcing baseline (no post-setup accuracy).
func NewOTO() Strategy { return strategy.NewOTO() }

// NewSET returns the synchronize-every-time baseline (heavy dummy overhead).
func NewSET() Strategy { return strategy.NewSET() }

// NewDPTimer returns the DP-Timer strategy (Algorithm 1): sync every
// cfg.Period ticks with Laplace-noised volumes, ε-DP update pattern.
func NewDPTimer(cfg TimerConfig) (Strategy, error) { return strategy.NewTimer(cfg) }

// NewDPANT returns the DP-ANT strategy (Algorithm 3): sync when the arrival
// count crosses a noisy threshold, ε-DP update pattern.
func NewDPANT(cfg ANTConfig) (Strategy, error) { return strategy.NewANT(cfg) }

// DefaultTimerConfig returns the paper's §8 defaults (ε=0.5, T=30, f=2000, s=15).
func DefaultTimerConfig() TimerConfig { return strategy.DefaultTimerConfig() }

// DefaultANTConfig returns the paper's §8 defaults (ε=0.5, θ=15, f=2000, s=15).
func DefaultANTConfig() ANTConfig { return strategy.DefaultANTConfig() }

// NewObliDB returns the bundled L-0 substrate: an ObliDB-style oblivious
// enclave engine over AES-GCM-sealed records. Supports Q1, Q2 and Q3.
func NewObliDB() (Database, error) { return oblidb.New() }

// CryptepsOption configures NewCrypteps.
type CryptepsOption = crypte.Option

// WithQueryEpsilon sets Cryptε's per-release analyst budget (default 3).
func WithQueryEpsilon(eps float64) CryptepsOption { return crypte.WithQueryEpsilon(eps) }

// WithNoiseSource plugs a deterministic noise source into Cryptε.
func WithNoiseSource(src NoiseSource) CryptepsOption { return crypte.WithNoiseSource(src) }

// NewCrypteps returns the bundled L-DP substrate: a Cryptε-style
// crypto-assisted DP engine. Supports Q1, Q2 and the Q4 fare sum; joins are
// rejected.
func NewCrypteps(opts ...CryptepsOption) (Database, error) { return crypte.New(opts...) }

// Q1 is the paper's linear range query: Yellow Cab pickups in zones 50–100.
func Q1() Query { return query.Q1() }

// Q2 is the paper's aggregation query: Yellow Cab pickups per zone.
func Q2() Query { return query.Q2() }

// Q3 is the paper's join query: tick-aligned Yellow × Green trips.
func Q3() Query { return query.Q3() }

// Q4 is this library's extension query: total Yellow Cab fare, a
// bounded-sensitivity SUM released with MaxFareCents-scaled noise on L-DP
// substrates.
func Q4() Query { return query.Q4() }

// SumFare builds a custom fare-sum query over provider p and zone range
// [lo, hi].
func SumFare(p Provider, lo, hi uint16) Query {
	return Query{Kind: query.SumFare, Provider: p, Lo: lo, Hi: hi}
}

// MaxFareCents is the fare-domain bound (the Q4 sensitivity).
const MaxFareCents = record.MaxFareCents

// RangeCount builds a custom range-count query over provider p.
func RangeCount(p Provider, lo, hi uint16) Query {
	return Query{Kind: query.RangeCount, Provider: p, Lo: lo, Hi: hi}
}

// GroupCount builds a custom group-by-location count over provider p.
func GroupCount(p Provider) Query {
	return Query{Kind: query.GroupCount, Provider: p}
}

// JoinCount builds a custom tick-equality join count between two providers.
func JoinCount(left, right Provider) Query {
	return Query{Kind: query.JoinCount, Provider: left, JoinWith: right}
}

// NewDummy returns a padding record for provider p (used by custom cache or
// store integrations; the bundled Owner pads automatically).
func NewDummy(p Provider) Record { return record.NewDummy(p) }

// CryptoNoise returns the production noise source (crypto/rand-backed).
func CryptoNoise() NoiseSource { return dp.CryptoSource{} }

// SeededNoise returns a deterministic noise source for reproducible
// experiments. Never use it in production: predictable noise voids the
// differential-privacy guarantee.
func SeededNoise(seed uint64) NoiseSource { return dp.NewSeededSource(seed) }
