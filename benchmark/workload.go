package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
	"dpsync/internal/workload"
)

// refSeconds is the run length the workload sizes below are calibrated for
// (BENCHMARK.json's run_seconds): an invocation's five repetitions together
// spend about this long under load at the seed commit on 2 vCPUs. -seconds
// scales the per-owner visit counts linearly from here. Work, not time, is
// what a repetition fixes: per-owner history and server RSS grow with every
// sync, so a fixed duration would compare a faster commit in a deeper state
// against a slower one in a shallower state.
const refSeconds = 15

// spec is one workload: its server topology and its traffic.
type spec struct {
	Name string
	Why  string
	// Owners × Visits is the repetition's fixed work. A visit is one sync
	// followed by Queries queries (cycling Q1–Q4) for the same owner.
	Owners  int
	Visits  int
	Queries int
	// DPShape draws batch sizes from DP-Timer/DP-ANT at the paper's defaults
	// (ε=0.5, T=30, θ=15, f=2000, s=15), alternating by owner; otherwise
	// every arrival is synced on receipt (SUR: one record per sync).
	DPShape  bool
	InFlight int
	// Durable runs the server with -store -history-window 16 -sync-epsilon
	// 0.001 and ends the repetition with SIGKILL + restart.
	Durable bool
	// Replica runs a -cluster primary and a -replica-of follower (both with
	// -store) and routes queries through client.WithReadReplica.
	Replica bool
}

// workloads are sized so one repetition takes about refSeconds/reps seconds
// under load at the seed commit.
var workloads = []spec{
	{
		Name: "sync-small", Owners: 2000, Visits: 45, InFlight: 8,
		Why: "one-record syncs to an in-memory gateway: client, frame I/O, codec and dispatch dominate; store, cluster and qcache idle",
	},
	{
		Name: "sync-durable", Owners: 500, Visits: 60, DPShape: true, InFlight: 32, Durable: true,
		Why: "DP-Timer/ANT-sized batches to a WAL-backed gateway, then SIGKILL and restart: seal, ingest, group commit, spill, rotation and recovery dominate",
	},
	{
		Name: "mixed-rw", Owners: 2000, Visits: 6, Queries: 8, InFlight: 8,
		Why: "each sync invalidates the owner's answer cache, then Q1-Q4 twice: four misses and four hits by construction, so a hit gain that costs misses shows",
	},
	{
		Name: "replica-read", Owners: 60, Visits: 80, Queries: 4, InFlight: 2, Replica: true,
		Why: "syncs to a cluster primary, queries through its follower: the only workload where hub ship, follower apply and read-plane rebuild work",
	},
}

func findWorkload(name string) (spec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// scaled returns the workload with its per-owner visits multiplied by f.
func (w spec) scaled(f float64) spec {
	w.Visits = int(math.Round(float64(w.Visits) * f))
	if w.Visits < 1 {
		w.Visits = 1
	}
	return w
}

var queryKinds = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

// ownerInput is one owner's whole life, generated before anything is
// timed: the setup batch γ0 and every later sync's batch, dummies included.
type ownerInput struct {
	Name    string
	Setup   []record.Record
	Batches [][]record.Record
}

// inputs is a workload's traffic as a function of the seed alone.
type inputs struct {
	Owners []ownerInput
	// Digest is a SHA-256 over every batch in owner and sync order.
	Digest string
	// SizeHist counts sync batches by size: 1, 2-4, 5-8, 9-16, 17-32, 33+.
	SizeHist [6]int
	Records  int
	Dummies  int
}

var sizeHistLabels = [6]string{"1", "2-4", "5-8", "9-16", "17-32", "33+"}

func sizeBucket(n int) int {
	switch {
	case n <= 1:
		return 0
	case n <= 4:
		return 1
	case n <= 8:
		return 2
	case n <= 16:
		return 3
	case n <= 32:
		return 4
	default:
		return 5
	}
}

func (in *inputs) dummyShare() float64 {
	if in.Records == 0 {
		return 0
	}
	return float64(in.Dummies) / float64(in.Records)
}

func ownerName(i int) string { return fmt.Sprintf("owner-%06d", i) }

// recorder is the edb.Database the generating owner talks to: it keeps the
// batches the real strategy and cache produced and does nothing else.
type recorder struct {
	setup   []record.Record
	batches [][]record.Record
}

func (r *recorder) Name() string              { return "recorder" }
func (r *recorder) Leakage() edb.LeakageClass { return edb.L0 }
func (r *recorder) Supports(query.Query) bool { return false }
func (r *recorder) Stats() edb.StorageStats   { return edb.StorageStats{} }
func (r *recorder) Setup(rs []record.Record) error {
	r.setup = append([]record.Record(nil), rs...)
	return nil
}
func (r *recorder) Update(rs []record.Record) error {
	r.batches = append(r.batches, append([]record.Record(nil), rs...))
	return nil
}
func (r *recorder) Query(query.Query) (query.Answer, edb.Cost, error) {
	return query.Answer{}, edb.Cost{}, edb.ErrUnsupportedQuery
}

// ownerSeed spreads the run seed over owners (splitmix64 finalizer).
func ownerSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func ownerStrategy(w spec, i int, seed uint64) (strategy.Strategy, error) {
	if !w.DPShape {
		return strategy.NewSUR(), nil
	}
	if i%2 == 0 {
		cfg := strategy.DefaultTimerConfig()
		cfg.Source = dp.NewSeededSource(seed)
		return strategy.NewTimer(cfg)
	}
	cfg := strategy.DefaultANTConfig()
	cfg.Source = dp.NewSeededSource(seed)
	return strategy.NewANT(cfg)
}

// arrivalRate is the taxi traces' records per tick (18,429 over 43,200).
const arrivalRate = float64(workload.YellowRecords) / float64(workload.JuneHorizon)

// generateOwner runs the real strategy over a generated arrival trace until
// it has emitted w.Visits syncs.
func generateOwner(w spec, i int, seed uint64) (ownerInput, error) {
	oseed := ownerSeed(seed, i)
	// Ticks per sync: 1/rate for SUR, T=30 for the timer, about θ/rate for
	// ANT; a trace that still ends early is regenerated at twice the length.
	horizon := w.Visits*3 + 16
	if w.DPShape {
		horizon = w.Visits*45 + 500
	}
	for ; ; horizon *= 2 {
		strat, err := ownerStrategy(w, i, oseed)
		if err != nil {
			return ownerInput{}, err
		}
		tr, err := workload.Generate(workload.Config{
			Provider: record.YellowCab, Horizon: record.Tick(horizon),
			Records: int(arrivalRate * float64(horizon)), Seed: oseed,
		})
		if err != nil {
			return ownerInput{}, err
		}
		rec := &recorder{}
		owner, err := core.New(core.Config{Strategy: strat, Database: rec})
		if err != nil {
			return ownerInput{}, err
		}
		d0 := record.Record{PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab, FareCents: 1000}
		if err := owner.Setup([]record.Record{d0}); err != nil {
			return ownerInput{}, err
		}
		for t := record.Tick(1); t <= tr.Horizon && len(rec.batches) < w.Visits; t++ {
			if r, ok := tr.ArrivalAt(t); ok {
				err = owner.Tick(r)
			} else {
				err = owner.Tick()
			}
			if err != nil {
				return ownerInput{}, err
			}
		}
		if len(rec.batches) >= w.Visits {
			return ownerInput{Name: ownerName(i), Setup: rec.setup, Batches: rec.batches[:w.Visits]}, nil
		}
	}
}

// generate builds the workload's inputs from the seed.
func generate(w spec, seed uint64) (*inputs, error) {
	in := &inputs{Owners: make([]ownerInput, w.Owners)}
	h := sha256.New()
	var lenBuf [8]byte
	hashBatch := func(rs []record.Record) {
		binary.BigEndian.PutUint64(lenBuf[:], uint64(len(rs)))
		h.Write(lenBuf[:])
		h.Write(record.EncodeSlice(rs))
	}
	for i := range in.Owners {
		o, err := generateOwner(w, i, seed)
		if err != nil {
			return nil, fmt.Errorf("generating owner %d: %w", i, err)
		}
		in.Owners[i] = o
		h.Write([]byte(o.Name))
		hashBatch(o.Setup)
		for _, b := range o.Batches {
			hashBatch(b)
			in.SizeHist[sizeBucket(len(b))]++
			in.Records += len(b)
			in.Dummies += len(b) - record.CountReal(b)
		}
	}
	in.Digest = hex.EncodeToString(h.Sum(nil))
	return in, nil
}

// truth is the harness's own aggregate over the real records owner o has
// had acknowledged: the setup batch and its first acked update batches.
func (o *ownerInput) truth(acked int) *query.Aggregates {
	a := query.NewAggregates()
	a.ObserveAll(o.Setup)
	for _, b := range o.Batches[:acked] {
		a.ObserveAll(b)
	}
	return a
}
