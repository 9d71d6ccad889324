package loadgen

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dpsync/internal/client"
	"dpsync/internal/core"
	"dpsync/internal/dp"
	"dpsync/internal/edb"
	"dpsync/internal/faultnet"
	"dpsync/internal/leakage"
	"dpsync/internal/metrics"
	"dpsync/internal/query"
	"dpsync/internal/record"
	"dpsync/internal/strategy"
)

// queryKinds is the analyst mix the drive cycles: the paper's four query
// shapes (range count, group count, join count, fare sum). Reusing the same
// four specs between commits is deliberate — repeats are what the
// noise-reuse answer cache exists to serve.
var queryKinds = []query.Query{query.Q1(), query.Q2(), query.Q3(), query.Q4()}

// ownerName is the canonical namespace ID for owner i.
func ownerName(i int) string { return fmt.Sprintf("owner-%06d", i) }

// The owner mix's parameters, read by the strategies the owners run and by
// the mechanisms that check what a server saw of them (ownerMechanism).
const (
	mixEpsilon    = 0.5
	timerPeriod   = 10
	antThreshold  = 5
	flushInterval = 60
	flushSize     = 4
)

// ownerSource is a fresh noise source at owner i's seed: its strategy draws
// from one, its mechanism from another.
func ownerSource(i int, seed uint64) dp.Source {
	s := seed + uint64(i)*2654435761
	if i%3 == 2 {
		s++
	}
	return dp.NewSeededSource(s)
}

// ownerStrategy builds owner i's strategy: the mix cycles the paper's
// always-on baseline and the two DP strategies, seeded per owner.
func ownerStrategy(i int, seed uint64) (strategy.Strategy, error) {
	switch i % 3 {
	case 0:
		return strategy.NewSUR(), nil
	case 1:
		return strategy.NewTimer(strategy.TimerConfig{
			Epsilon: mixEpsilon, Period: timerPeriod, FlushInterval: flushInterval, FlushSize: flushSize,
			Source: ownerSource(i, seed),
		})
	default:
		return strategy.NewANT(strategy.ANTConfig{
			Epsilon: mixEpsilon, Threshold: antThreshold, FlushInterval: flushInterval, FlushSize: flushSize,
			Source: ownerSource(i, seed),
		})
	}
}

// ownerMechanism is the update pattern the paper's mechanism for owner i's
// strategy (Table 4: M_SUR, M_timer, M_ANT) computes from the owner's data
// alone — |D0| and the arrival trace of ticks 1 to ticks — at its strategy's
// parameters and seed. It shares no code with the strategy, so a strategy
// that leaks more than its mechanism diverges from it even where refdb,
// driven by the same strategy, agrees.
func ownerMechanism(i int, seed uint64, ticks int) (*leakage.Pattern, error) {
	d0 := len(initialRecords(i))
	u := make(leakage.Arrivals, ticks)
	for t := 1; t <= ticks; t++ {
		u[t-1] = arrives(i, t)
	}
	switch i % 3 {
	case 0:
		return leakage.MSUR(d0, u), nil
	case 1:
		return leakage.MTimer(d0, u, mixEpsilon, timerPeriod, flushInterval, flushSize, ownerSource(i, seed))
	default:
		return leakage.MANT(d0, u, mixEpsilon, antThreshold, flushInterval, flushSize, ownerSource(i, seed))
	}
}

// initialRecords is owner i's D0, uploaded by its setup at tick 0.
func initialRecords(i int) []record.Record {
	return []record.Record{{PickupTime: 0, PickupID: uint16(i%record.NumLocations + 1), Provider: record.YellowCab}}
}

// arrives reports whether one record arrives for owner i at tick t ≥ 1.
func arrives(i, t int) bool { return (t+i%3)%3 == 0 }

// fleet is a run's client side: the owners, the connections they share, and
// the stopwatch of the one disruption. The reference is the same fleet with
// no connections, attached to one refdb per owner.
type fleet struct {
	cfg    Config
	owners []*fleetOwner
	// inj holds one fault injector a connection slot (Config.Faults), each
	// with its own seed and its own share of the disruptive budget, so what a
	// slot is dealt follows from the frames its connections carried, never
	// from how the slots' draws interleaved.
	inj []*faultnet.Injector
	// conns holds every connection ever dialed (a closed one still reports
	// its counters); the last live of them are open. mu guards both against
	// the owners' churn drops.
	mu    sync.Mutex
	conns []*client.GatewayConn
	live  int
	// disruptedAt is the kill instant, firstAck the first sync acknowledged
	// after it (CAS-once, any owner).
	disruptedAt, firstAck atomic.Int64
}

// fleetOwner is one owner's life: its stack, its open-loop arrival process,
// and — as the edb.Database the stack uploads through — the timing wrapper
// over the attached handle (a session, or the reference). The stack keeps
// running while a re-dial between drives swaps the handle underneath it.
type fleetOwner struct {
	edb.Database
	i        int
	fleet    *fleet
	owner    *core.Owner
	arrivals *rand.Rand
	next     time.Time
	churn    *rand.Rand // draws the ticks the owner drops its connection at (Config.Churn)
	// Milliseconds: sync round trips, open-loop ticks from their scheduled
	// arrival, query round trips.
	syncLat, openLat, queryLat []float64
	records                    int64
}

func newFleet(cfg Config) *fleet {
	f := &fleet{cfg: cfg, owners: make([]*fleetOwner, cfg.Owners)}
	for i := range f.owners {
		f.owners[i] = &fleetOwner{i: i, fleet: f}
	}
	if cfg.Faults {
		f.inj = make([]*faultnet.Injector, f.connCount())
		for i := range f.inj {
			f.inj[i] = faultnet.New(faultnet.DefaultConfig(int64(cfg.Seed)+int64(i)<<32, faultBudget))
		}
	}
	return f
}

func (f *fleet) connCount() int { return min(maxConns, f.cfg.Owners) }

// time runs one sync, records its round trip, and stamps the first one
// acknowledged after a disruption.
func (o *fleetOwner) time(op func([]record.Record) error, rs []record.Record) error {
	start := time.Now()
	if err := op(rs); err != nil {
		return err
	}
	o.syncLat = append(o.syncLat, float64(time.Since(start).Nanoseconds())/1e6)
	o.records += int64(len(rs))
	if f := o.fleet; f.disruptedAt.Load() != 0 {
		f.firstAck.CompareAndSwap(0, time.Now().UnixNano())
	}
	return nil
}

func (o *fleetOwner) Setup(rs []record.Record) error  { return o.time(o.Database.Setup, rs) }
func (o *fleetOwner) Update(rs []record.Record) error { return o.time(o.Database.Update, rs) }

// tick lives one tick of the owner's life. Tick 0 builds the stack over the
// attached handle and runs the setup protocol; tick t > 0 delivers the
// arrival schedule's record or nothing, then the analyst mix.
func (o *fleetOwner) tick(t int) error {
	cfg := o.fleet.cfg
	if t == 0 {
		strat, err := ownerStrategy(o.i, cfg.Seed)
		if err != nil {
			return err
		}
		if o.owner, err = core.New(core.Config{Strategy: strat, Database: o}); err != nil {
			return err
		}
		return o.owner.Setup(initialRecords(o.i))
	}
	if cfg.OpenLoop {
		// A seeded Poisson process with a bursty mixture (one arrival in five
		// lands with the last). The schedule never resynchronizes to "now": if
		// the server stalls, later arrivals are already due and their latency
		// includes the queueing delay.
		if o.arrivals == nil {
			o.arrivals = rand.New(rand.NewSource(int64(cfg.Seed)*1_000_003 + int64(o.i)))
			o.next = time.Now()
		}
		if o.arrivals.Float64() >= 0.2 {
			gap := time.Duration(o.arrivals.ExpFloat64() * float64(meanArrival))
			o.next = o.next.Add(min(gap, 10*meanArrival))
		}
		if d := time.Until(o.next); d > 0 {
			time.Sleep(d)
		}
	}
	if cfg.Churn {
		// A drop severs the connection between two of the owner's requests,
		// releasing any other owner's in flight on it, to be re-sent once the
		// next request that needs it has redialed.
		if o.churn == nil {
			o.churn = rand.New(rand.NewSource(int64(cfg.Seed)*7919 + 17 + int64(o.i)))
		}
		if o.churn.Intn(churnEvery) == 0 {
			o.fleet.drop(o.i)
		}
	}
	var arrived []record.Record
	if arrives(o.i, t) {
		arrived = []record.Record{{
			PickupTime: record.Tick(t), PickupID: uint16((o.i+t)%record.NumLocations + 1), Provider: record.YellowCab,
		}}
	}
	if err := o.owner.Tick(arrived...); err != nil {
		return err
	}
	// Queries go straight to the handle: they are reads of released state,
	// not part of the owner's update pattern.
	for q := 0; q < cfg.QueryMix; q++ {
		start := time.Now()
		if _, _, err := o.Database.Query(queryKinds[(t*cfg.QueryMix+q)%len(queryKinds)]); err != nil {
			return fmt.Errorf("query: %w", err)
		}
		o.queryLat = append(o.queryLat, float64(time.Since(start).Nanoseconds())/1e6)
	}
	if cfg.OpenLoop {
		o.openLat = append(o.openLat, float64(time.Since(o.next).Nanoseconds())/1e6)
	}
	return nil
}

// drive runs ticks from..to of every owner and returns when all of them are
// acknowledged. Owners run concurrently on a bounded pool (4×GOMAXPROCS
// clamped to [8, 64]: drivers spend their time blocked on round trips, so
// oversubscribing cores is the point), each one's ticks in order.
func (f *fleet) drive(from, to int) error {
	jobs := make(chan *fleetOwner)
	errs := make(chan error, len(f.owners))
	var wg sync.WaitGroup
	for w := min(len(f.owners), max(8, min(64, 4*runtime.GOMAXPROCS(0)))); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range jobs {
				for t := from; t <= to; t++ {
					if err := o.tick(t); err != nil {
						errs <- fmt.Errorf("loadgen: %s tick %d: %w", ownerName(o.i), t, err)
						break
					}
				}
			}
		}()
	}
	for _, o := range f.owners {
		jobs <- o
	}
	close(jobs)
	wg.Wait()
	select {
	case err := <-errs:
		return err
	default:
		return nil
	}
}

// attach points every owner at the handle open returns for it.
func (f *fleet) attach(open func(i int) edb.Database) {
	for _, o := range f.owners {
		o.Database = open(o.i)
	}
}

// dial connects the fleet to the target (again, after a kill replaced it) and
// attaches every owner to a session multiplexed over the new connections.
func (f *fleet) dial(t *target) error {
	primary, standby, replica := t.addrs()
	var opts []client.GatewayOption
	if replica != "" {
		opts = append(opts, client.WithReadReplica(replica))
	}
	if standby != "" {
		// Failover is address rotation plus an unbounded resync window: the
		// promoted node may lack any suffix of what the primary acknowledged.
		opts = append(opts, client.WithAddrs(standby), client.WithResyncWindow(-1))
	}
	if f.cfg.Churn || f.cfg.Faults || standby != "" {
		// A lost transport must heal, not fail the run: the healing (the
		// next request redials, each lost request is re-sent by its waiter)
		// is what is under test.
		opts = append(opts, client.WithReconnect(healAttempts))
	}
	f.hangup()
	fresh := make([]*client.GatewayConn, f.connCount())
	for i := range fresh {
		opts := opts
		if f.inj != nil {
			opts = append(opts[:len(opts):len(opts)], client.WithDialer(f.inj[i].Dialer(nil)))
		}
		c, err := client.DialGateway(primary, t.key, opts...)
		if err != nil {
			return err
		}
		fresh[i] = c
		f.mu.Lock()
		f.conns, f.live = append(f.conns, c), f.live+1
		f.mu.Unlock()
	}
	f.attach(func(i int) edb.Database { return fresh[i%len(fresh)].Owner(ownerName(i)) })
	return nil
}

// hangup closes the open connections.
func (f *fleet) hangup() {
	f.mu.Lock()
	open := f.conns[len(f.conns)-f.live:]
	f.live = 0
	f.mu.Unlock()
	for _, c := range open {
		c.Close()
	}
}

// drop severs the open connection owner i's requests ride (the fleet's
// churn): every request in flight on it is released, to be re-sent by its
// waiter once the next request that needs the connection has redialed it.
func (f *fleet) drop(i int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.live > 0 {
		f.conns[len(f.conns)-f.live+i%f.live].Drop()
	}
}

// disrupted starts the outage stopwatch; outageMs reads it once a sync has
// been acknowledged since (0 before that, and with no disruption).
func (f *fleet) disrupted() { f.disruptedAt.Store(time.Now().UnixNano()) }

func (f *fleet) outageMs() float64 {
	if first := f.firstAck.Load(); first != 0 {
		return float64(first-f.disruptedAt.Load()) / 1e6
	}
	return 0
}

// resumeAll runs every owner's resume handshake against whichever node is
// serving.
func (f *fleet) resumeAll() error {
	for _, o := range f.owners {
		if err := o.Database.(*client.OwnerSession).Resume(); err != nil {
			return fmt.Errorf("loadgen: %s resume: %w", ownerName(o.i), err)
		}
	}
	return nil
}

// readBack requires a Q1 answer for every owner and, with counts, that the
// gateway's split-blind update count equals the owner's own bookkeeping — the
// check left when the transcript is out of reach.
func (f *fleet) readBack(counts bool) error {
	for _, o := range f.owners {
		if _, _, err := o.owner.Query(query.Q1()); err != nil {
			return fmt.Errorf("loadgen: %s query: %w", ownerName(o.i), err)
		}
		if !counts {
			continue
		}
		remote, err := o.Database.(*client.OwnerSession).RemoteStats()
		if err != nil {
			return fmt.Errorf("loadgen: %s remote stats: %w", ownerName(o.i), err)
		}
		if want := o.owner.Pattern().Updates(); remote.Updates != want {
			return fmt.Errorf("loadgen: %s: gateway counted %d updates, owner posted %d", ownerName(o.i), remote.Updates, want)
		}
	}
	return nil
}

// measure fills the client-side half of the report.
func (f *fleet) measure(rep *Report, elapsed time.Duration) {
	syncLat, openLat, queryLat := metrics.NewSeries("sync_rtt_ms"), metrics.NewSeries("open_loop_tick_ms"), metrics.NewSeries("query_rtt_ms")
	collect := func(s *metrics.Series, lat []float64) {
		for _, ms := range lat {
			s.Add(record.Tick(s.Len()), ms)
		}
	}
	for _, o := range f.owners {
		collect(syncLat, o.syncLat)
		collect(openLat, o.openLat)
		collect(queryLat, o.queryLat)
		rep.SyncRecords += o.records
	}
	var reconnectTotal time.Duration
	for _, c := range f.conns {
		rep.BytesOut += c.BytesOut()
		rep.BytesIn += c.BytesIn()
		n, total := c.ReconnectStats()
		rep.Reconnects += n
		reconnectTotal += total
		served, _, fallbacks := c.ReplicaStats()
		rep.ReplicaServed += served
		rep.ReplicaFallbacks += fallbacks
	}
	secs := elapsed.Seconds()
	rep.Elapsed = secs
	rep.Syncs, rep.Queries = int64(syncLat.Len()), int64(queryLat.Len())
	rep.SyncsPerSec = float64(rep.Syncs) / secs
	rep.P50Ms, rep.P99Ms = syncLat.Quantile(0.50), syncLat.Quantile(0.99)
	rep.BytesPerSync = float64(rep.BytesOut+rep.BytesIn) / float64(rep.Syncs)
	if openLat.Len() > 0 {
		rep.OpenLoopP99Ms = openLat.Quantile(0.99)
	}
	if rep.Queries > 0 {
		rep.QueryP99Ms = queryLat.Quantile(0.99)
		rep.QueryQPS = float64(rep.Queries) / secs
		rep.ReplicaQueryQPS = float64(rep.ReplicaServed) / secs
	}
	if rep.Reconnects > 0 {
		rep.ChurnResumeMs = float64(reconnectTotal.Nanoseconds()) / 1e6 / float64(rep.Reconnects)
	}
	for _, in := range f.inj {
		rep.FaultsInjected += in.Counts().Total()
	}
}
