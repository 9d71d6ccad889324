// Package dpsync implements DP-Sync (Wang, Bater, Nayak, Machanavajjhala,
// SIGMOD 2021): a framework for secure outsourced growing databases that
// hides the owner's update pattern — when uploads happen and how many
// records they carry — behind an ε-differential-privacy guarantee.
//
// # Why update patterns leak
//
// An encrypted database protects record *contents*, but a server (or anyone
// timing the owner's traffic) still observes every upload's time and volume.
// For event-driven sources — IoT sensors, point-of-sale terminals, health
// monitors — upload timing is event timing, and that alone can reveal who
// entered a building and which floor they walked to (the paper's §1
// example). DP-Sync decouples the two: a synchronization strategy decides
// data-independently (or with calibrated noise) when to sync and how many
// records to send, padding shortfalls with dummy records that are
// cryptographically indistinguishable from real ones.
//
// # The strategies
//
// Three baselines span the privacy/accuracy/performance triangle:
//
//   - SUR (synchronize upon receipt): perfect accuracy and performance,
//     zero privacy — the pattern is the event stream.
//   - OTO (one-time outsourcing): perfect privacy and performance, zero
//     accuracy for post-setup data.
//   - SET (synchronize every time): perfect privacy and accuracy, with a
//     dummy record uploaded on every idle tick — storage and query time
//     balloon.
//
// The two DP strategies interpolate, with an ε-DP guarantee for any single
// record's presence (paper Definition 5):
//
//   - DP-Timer uploads every T ticks; each upload's volume is the window's
//     true arrival count plus Lap(1/ε) noise.
//   - DP-ANT uploads when the arrival count since the last sync crosses a
//     noisy threshold θ (sparse-vector technique), fetching a noisy count.
//
// Both pair with a cache-flush mechanism (fixed s records every f ticks,
// 0-DP) that bounds the owner-side cache and guarantees eventual
// consistency.
//
// # Quick start
//
//	db, err := dpsync.NewObliDB()
//	if err != nil { ... }
//	strat, err := dpsync.NewDPTimer(dpsync.TimerConfig{
//		Epsilon: 0.5, Period: 30, FlushInterval: 2000, FlushSize: 15,
//	})
//	if err != nil { ... }
//	owner, err := dpsync.New(dpsync.Config{Database: db, Strategy: strat})
//	if err != nil { ... }
//
//	_ = owner.Setup(nil)             // empty initial database
//	_ = owner.Tick(sensorRecord)     // a record arrived this tick
//	_ = owner.Tick()                 // nothing arrived this tick
//	ans, cost, _ := owner.Query(dpsync.Q1())
//
// The owner buffers arrivals locally; uploads happen only when the strategy
// fires. owner.Pattern() exposes exactly what the server observed.
//
// # Substrates
//
// Two encrypted-database substrates ship with the library, mirroring the
// paper's evaluation: NewObliDB (an SGX/ORAM-style oblivious engine whose
// ORAM cost is modeled, not simulated block by block; leakage class L-0,
// supports range/group/join counting) and NewCrypteps
// (a crypto-assisted DP engine, class L-DP, linear queries with noisy
// answers). Any store satisfying the Database interface and the §6 leakage
// constraints can be plugged in.
//
// # Performance architecture
//
// The paper-scale evaluation replays 43,200-tick months through five
// strategies and two substrates, posing Q1–Q3 every 360 ticks. Two design
// decisions keep that hot path fast without touching what the paper
// measures:
//
// Incremental aggregation. Every consumer of query answers — the ObliDB
// enclave, the Cryptε aggregation service, and the ground-truth side of the
// L1 error metric — folds records into a query.Aggregates statistic at
// ingest and answers Q1–Q4 from it instead of rescanning the store. The
// statistic is indexed, not hashed, because a DP-Sync server pays for its
// privacy guarantee in volume — every sync is padded, every flush a batch —
// so its cost per uploaded record is the price of the mechanism itself. A
// pickupID is bounded by record.NumLocations, so each provider keeps one
// dense array of {count, fare sum} and Observe is two indexed adds; the
// pickupTime join key arrives near-monotone (an owner uploads in tick
// order), so it is an append-only slice with a sorted flag and Observe adds
// an append and one compare. RangeCount and SumFare walk at most
// NumLocations slots, GroupCount copies them, JoinCount is one merge walk
// over two sorted slices, O(|L|+|R|). Every stored record takes that one
// path: a dummy is a record of weight 0 and a real record one of weight 1,
// each adds its weight to its slot's count and its weight times its fare to
// the fare sum, and each takes one join-key slot with its weight beside it —
// a dummy's repeats the table's last key, so it never unsorts the slice —
// and a join multiplies the summed weights of each equal-key run. So the
// statistic is sized by the record count, which the update pattern
// publishes, and never by the real/dummy split the mechanism spends ε to
// hide. Three inputs fall outside that shape and are handled where they
// occur, never by a setting. record.Decode validates nothing, so an
// authenticated record can carry any uint16 pickupID: those outside
// 0..NumLocations live in a small overflow map beside the array, and every
// range still counts them exactly as the naive plan does. A table's first
// eight records, real or dummy, live in that map too and the ninth allocates
// the array and moves them in: the array is about 4 KB a provider, a serving
// gateway holds thousands of tenants, and without this the youngest of them
// would be the most expensive (mixed-rw's 2,000 seven-record owners would
// pay some 17 MB of array at setup). The move follows the table's record
// count, which is public, and a map of at most eight entries has one size
// whatever its keys. And a real join key that arrives out of order clears
// the sorted flag, so the next join sorts once (sort-on-demand rather than
// sorted insertion, because the common case never pays for it). The only
// part of the statistic that grows with ingest is the join key and its
// weight, 9 bytes a record, real or dummy. This preserves the L-0 leakage
// semantics exactly:
// obliviousness is a property of the *modeled* engine, whose calibrated QET
// cost model, with the scan extent it reports, still charges the full
// oblivious scan of every resident record, byte-for-byte what the naive full-scan
// path reported. Only the simulator's answer computation is incremental,
// and differential tests pin those answers bit-identical to naive plan
// evaluation — over out-of-domain IDs, unknown providers and join keys in
// any order too, and as a fuzz target (counts and fare sums are integers far
// below 2^53, so float64 accumulation order cannot perturb them). The
// O(output) join row materialization only ever ran inside the simulator,
// never in the modeled engine, so eliminating it changes no observable
// either. The enclave boundary itself allocates nothing in steady state: a
// batch is opened into reused scratch (a plaintext buffer of up to 64
// records through seal.Sealer.AppendOpen, from a pool the enclaves share, and
// the enclave's one reused record slice), still
// all-or-nothing — every record of every message is decoded before any is
// observed, so a message that fails authentication admits none of its batch.
// An owner seals a batch as one AES-GCM message, nonce ‖ GCM(r₁ ‖ … ‖ rₙ) ‖
// tag (seal.SealBatch: 16n + 28 bytes, one nonce, one open on the server);
// the server takes any number of messages a sync, so a batch sealed one
// message per record (refdb, directories written before) is counted and
// answered identically.
//
// Parallel experiment grid. Grid and sweep cells (sim.RunGrid,
// sim.SweepEpsilon, sim.SweepPeriod, sim.SweepThreshold) are independent
// simulations: each owns its database, owners, and seeded noise streams.
// They execute concurrently on a worker pool bounded by GOMAXPROCS, sharing
// only the (immutable) generated workload traces — produced once per grid
// rather than once per cell. Because every noise source derives from the
// cell's own config, parallel results are bit-identical to the serial
// driver's, which tests pin under -race.
//
// Cryptε is modelled, not computed. DP-Sync's guarantee is about the update
// pattern an encrypted database's Setup and Update expose, not about how it
// encrypts, so the Cryptε substrate (internal/crypte) keeps the paper's data
// layout and noisy-release interface but evaluates its linear aggregates in
// the clear and prices the homomorphic work with edb.CrypteCostModel, just
// as ObliDB's ORAM is priced by edb.ObliDBCostModel.
//
// # Serving architecture
//
// The networked deployment has one server, one client, and one codec.
// internal/gateway is the serving layer: one TCP endpoint hosting thousands
// of owners, each in its own namespace with its own encrypted store,
// update-pattern transcript, and logical clock; the paper's single-owner
// deployment is that gateway with one tenant (cmd/dpsync-owner and
// cmd/dpsync-analyst name the namespace with -owner). The single-owner
// stack survives only as internal/refdb, the transport-free oracle the
// differential tests compare against. Four rules define the gateway:
//
// Shard by owner. Owner IDs hash onto a fixed set of shard workers (bounded
// by GOMAXPROCS) and each worker owns its tenants' state outright — one
// owner's requests always execute on one goroutine, so per-owner operations
// are serialized without a tenant lock and unrelated owners never contend.
//
// One binary codec. Connections open with a hello — protocol magic plus a
// version byte — and every payload is the binary codec's (hand-rolled
// fields, no base64 expansion of sealed ciphertexts; its field primitives
// are internal/binfmt, shared with the on-disk formats). The version byte
// is 9: 8 let a query carry a replica freshness bound (a second query
// encoding, type 6, and a stale refusal, code 2) that no caller could name,
// 7 led every frame with a 4-byte length and sent an answer's modelled
// seconds beside the counts they are computed from, 6 sent every group
// vector one value a group, 5 padded every answer to 4-byte groups beside an
// 8-byte scalar, 4 named the owner inline in every request, 3 said no with
// an error text beside two flag bits, 2 was a layout of fixed-width integers
// and 1 a JSON encoding, all retired, and a hello proposing any other codec
// byte is acked 9; there is nothing to negotiate down to. Every frame, on
// every connection, opens with its payload's length as a minimal-form
// uvarint — 1 byte below 128, 2 below 16 KiB, at most 4 up to wire.MaxFrame
// — written and parsed in one place, wire.FrameHeader (a padded header, a
// fifth byte and a length past MaxFrame are refused before anything is
// allocated). The payload layout (uv = minimal-form varint):
//
//	request   uv id · owner · u8 type ·
//	  owner           u8 len (1..255) · name, or u8 0 · uv handle (≥ 1)
//	  setup, update   uv seq · uv n · [uv width · n×width ciphertext bytes]
//	                  (an owner sends n = 1: its batch is one message)
//	  query           u8 kind · u8 provider · u8 joinWith · u16 lo · u16 hi
//	  stats, resume   —
//	response  uv id · u8 flags (OK 1, refused 2, scalar 4, cost 8, stats 16, resume 32, groups 64) ·
//	  [refusal  u8 code · uv cursor · uv len · detail]
//	  [scalar   u8 width · value]
//	  [groups   u8 width · uv n (≥ 1) · n × value]
//	            width 1, 2, 4, 8: a big-endian count (8: at most 2⁵³); 0: f64
//	          | u8 0x82 · uv n (1..65535) · uv k · k × u16 index
//	            the counted records' groups, non-decreasing, then n (the pad)
//	  [cost     uv scanned · uv pairs]
//	  [stats    uv records · uv bytes · uv updates · u8 len · scheme · u8 leakage]
//	  [resume   uv clock]
//
// A node says no one way. A response is exactly one of OK and refused, and a
// refused one is nothing but a wire.Refusal{Code, Cursor, Detail}, built by
// one constructor (wire.Refuse) and counted by code where every reply passes
// (gateway_refusals_total{code}). The Refusal is itself the client's error —
// wrapped, never re-worded — and its Unwrap is the code's one sentinel, so a
// caller branches with errors.Is, reads the cursor with errors.As, and never
// compares text: an owner's reaction to "no" is traffic the server observes,
// and this is what lets a test or an audit assert which no it got. There are
// eight codes; 2 is a hole, codec 8's stale refusal, which both codec halves
// refuse and no code will reuse. Only codes 8 and 9 carry text, so every
// other refusal is six bytes on the wire whatever was refused and whoever
// asked:
//
//	code            sentinel              who decides it                        cursor
//	1 backpressure  wire.ErrBackpressure  connection reader: in-flight cap      —
//	3 not-primary   wire.ErrNotPrimary    reader: a write on a "DPSQ" conn      —
//	4 not-setup     edb.ErrNotSetup       shard worker: no such namespace       —
//	5 seq-gap       wire.ErrSeqGap        shard worker: Seq past clock+1        expected seq
//	6 suspended     wire.ErrSuspended     shard worker: a sync's durability is  —
//	                                      unknown (the cause is in its log)
//	7 closing       wire.ErrClosing       reader: the shard workers are gone    —
//	8 bad-request   wire.ErrBadRequest    reader: malformed frame, unbound      —
//	                                      handle, Seq 0 — the fault restated
//	9 failed        wire.ErrFailed        a backend or ledger erred — its text  —
//
// (4 is edb.ErrNotSetup because that is what an in-process edb.Database
// returns; a backend that says so itself is reported as 4, not 9. At the
// hello, where the ack slot is one byte, 3 is the byte wire.HelloRefused.) A
// severed connection is no reply at all and is counted on its own
// (gateway_severed_total).
//
// DP-Sync buys its guarantee with traffic — dummies and extra syncs — so the
// bytes a sync and an answer cost are the paper's own performance metric,
// and the codec spends only what an operation needs: a one-record sync is 52
// bytes on the wire once its connection has bound the owner (63 naming it
// inline, 86 under codec 2) and its ack 3 (13), a Q2 request 12 (23 inline)
// and its answer 10 + 2V bytes from a store of V ≤ 59 records — 24 at
// V = 7 — 11 + 2V to V = 127, and 275 from one of 132 to 255 (285 under
// codec 7 and at any V under codec 6, 1,088 under codec 5, 2,169 under codec
// 2). An answer's cost travels as its two record counts: a query's modelled
// QET is a public linear function of them (edb.CostModel.Of — an oblivious
// operator's cost depends only on its input sizes), so the client derives
// the seconds from the counts and the backend scheme it learned with its
// first stats probe, bit for bit the backend's own. An owner is named once per
// connection: a request's owner field is its name (a length byte, then 1 to
// 255 bytes) or
// a handle (a zero byte, then a varint ≥ 1), and both ends apply one rule to
// every frame that parses — an inline name not yet bound on the connection
// binds the next handle while fewer than wire.MaxBindings (4,096) are bound,
// whatever the reader then answers, so a refused or a duplicated frame leaves
// the two tables equal. A redial starts both tables empty; an owner past the
// bound is named inline on every frame; a handle the connection never bound
// is bad-request. The reader resolves a bound owner with one slice index.
// Two rules keep the saving from becoming a side channel.
// Uniform width per batch: every ciphertext of a batch has one length,
// written once, and the encoder refuses a batch that mixes lengths. An
// owner's batch is one message of 16n + 28 bytes (seal.Size) — a sealed
// dummy is a sealed record's size by construction, which is exactly what
// makes the two indistinguishable — so a frame's length is a function of the
// record count and the connection's binding state alone, never of the
// real/dummy split: an 8-record sync is 166 bytes by handle, 177 inline (372
// when every record was a message of its own). Answer width from the public
// bound, never from the data: the server already learns each sync's volume,
// so it knows V, the records an owner's store holds, real and dummy
// (edb.StorageStats.Records; RemoteStats reports it). V bounds every exact
// answer — a count of records (Q1, each Q2 group) by V, a join's pairs by
// V², a fare sum by V·(2³² − 1) — and an answer travels as one scalar or one
// group vector whose values all take the least of 1, 2, 4 and 8 bytes that
// holds its kind's bound at V. A GroupCount vector has a tighter bound: a
// record falls in at most one group, so its exact counts sum to at most V,
// and it travels instead as V 2-byte indices — the counted records' groups in
// non-decreasing order, then the pad, the group count, for the slots left —
// whenever that is fewer bytes than its groups at the bound's width (V ≤ 131
// against one byte a group, V = 256 to 263 against two). As in oblivious
// query processing, which pads an output to the worst case its public input
// size allows, not to the worst case of any input, an exact backend's
// response is then a function of (kind, V) alone: Q2 from V ≤ 131 records is
// V indices, from 132 to 255 it is 265 one-byte groups, and the width steps
// at V = 256 and 65,536 (a join's at 16, 256 and 65,536). The decoder
// expands the indices into the groups, refusing them out of order, past the
// pad, on a scalar or past the frame. The bound is applied in one place, the
// gateway tenant's answer path (wire.NewBoundedQueryResponse): a replica's
// answer is at the V it has applied, and a cached answer keeps its layout
// until the Commit that moves V drops it. An answer with a value that is not an exact count within the
// bound — a noisy backend's release — travels as 8 float bytes a value (−0,
// NaN, ±Inf and fractions bit-exact); a release that happens to be a count
// (Cryptε clamps a negative one to 0) travels at the bound's width, a length
// that tells no more than its bytes, which carry the released value. The
// width is one byte for the whole answer, and no value is ever shortened on
// its own. The width is part of the
// message, so the codec stays stateless: the encoder refuses a value its
// width does not hold, and the client refuses an answer whose shape is not
// its query kind's (GroupCount's record.NumLocations groups, every other
// kind's scalar). The codec is canonical — padded varints, a width without a
// batch, a scalar beside groups, an unknown width code, an 8-byte count past
// 2⁵³, a response both OK and refused or neither, a refusal beside another
// section or with a cursor or text its code does not carry, a retired flag
// bit, trailing bytes are all wire.ErrBadFrame — so
// each message has one byte string, the fuzz targets are bijection checks,
// and TestFrameSizes pins every size against a reference encoder that
// shares no code with it. Frames are multiplexed envelopes — request ID plus
// owner namespace, by name or handle — and the pipelined client (client.DialGateway) keeps a
// window of requests in flight per connection, matching responses by ID
// with per-owner FIFO ordering, so one connection carries many owners' sync
// batches. Both substrates serve unchanged behind the gateway, which hands
// every batch on sealed: the ObliDB enclave and the Cryptε aggregation
// service each open it with their own key, and the gateway opens none.
//
// One frame connection. After the hello, every connection loop — the
// gateway's handler (on a primary and on a follower alike), the pipelined
// client, the follower's replication tail, the hub's sender — moves frames
// through one type,
// wire.Conn. Its read half fills a buffer with one socket read and yields
// every complete frame already in it; its write half builds each frame in
// place behind a reserved header (the codec's Append encoders) and reaches
// the socket only on Flush or when the buffer fills. The flush rule is
// flush-on-idle: the gateway's per-connection writer flushes when its
// response queue is empty, and the client's per-transport flusher yields to
// the scheduler once — so every sender already runnable appends first — and
// then flushes. This is not Nagle's algorithm and has none of its latency:
// nothing waits for a timer, for an ACK, or for a later frame. A frame with
// nothing queued behind it is on the socket at once (a lone sync costs
// exactly one write each way, pinned by test); only frames that were
// already waiting share a write. DP-Sync's strategies make syncs small and
// frequent, so under load the cost of a sync is the cost of moving its
// frame: coalescing took a round trip from eight socket calls, both ends
// counted, to under one at eight requests in flight on a connection
// (BenchmarkPipelinedRoundTrip; CHANGES.md, PR 13). Deadlines ride
// the same type: the idle read deadline is armed only before a read that
// can block, the write-stall deadline before every socket write.
//
// Per-owner transcripts are isolated. Each tenant's observed update pattern
// is bit-identical to what the single-owner reference records for that
// owner's request stream alone — a differential test pins this — so
// per-owner DP accounting survives multi-tenancy: the operator sees a union
// of transcripts, each independently carrying its owner's ε guarantee.
//
// internal/loadgen (cmd/dpsync-loadgen) is the in-process load driver, and
// a run has three parts, each written once. A fleet: N full core.Owner
// stacks (the strategy mix cycles SUR, DP-Timer, DP-ANT) × T ticks over
// shared pipelined connections, optionally with connection churn, injected
// faults, open-loop arrivals and a Q1–Q4 query mix; drive(from, to) runs the
// owners concurrently and returns when every owner's tick `to` is
// acknowledged. A target: an external gateway, or an in-process topology —
// one node in memory, one node on a store, or a primary and a follower on
// stores. At most one disruption, landing on a quiesced tick boundary: a
// graceful close → reopen after the last tick (-durable), or a kill at a
// seed-derived tick — Gateway.Kill and recovery from the directory on one
// node (-crash N), Node.Kill of the primary and the follower's role flip on a
// cluster (-failover N). And one verification for every in-process
// combination: the same seeded fleet is driven, without sockets, into one
// internal/refdb per owner, and one pure function requires each owner's
// server-observed events to equal the reference's tick for tick and volume
// for volume, and its ε ledger to hold exactly one m_setup plus one m_update
// per further event at the configured charge. It reports sync throughput,
// p50/p99 sync latency and bytes per sync (1,000 owners × 100 ticks complete,
// verified, in well under a second on one core); the numbers a claim may
// rest on are go run ./benchmark's sync_per_s, sync_p50_ms/sync_p99_ms and
// wire_bytes_per_op, measured against a separate pinned server process.
//
// # Durability architecture
//
// DP-Sync's guarantee is only as strong as its accounting: a gateway crash
// that loses a tenant's ε ledger forgets spend, and a naive replay that
// re-applies syncs double-spends it and re-emits transcript events —
// distorting the very update pattern the mechanism hides. internal/store
// makes tenant state durable and crash-consistent; gateway.Config.StoreDir
// (cmd/dpsync-server -store) turns it on.
//
// Spend before sync. Every sync writes one WAL entry — the sealed
// ciphertexts, the owner's upload tick, and the ledger charge, together —
// and the entry must group-commit before the sync is acknowledged to the
// client or becomes observable in the tenant's transcript. The charge is
// validated before the batch touches the backend (a refused charge refuses
// the sync with nothing ingested) and spent at commit in the same step
// that records the transcript event, so no observable event can exist
// whose charge might be lost and the in-memory ledger always equals the
// committed history's spend. Each entry carries its charge explicitly, so
// recovery re-spends exactly what the original run spent, even across
// configuration changes. That logged charge is the ledger's only record: no
// snapshot image stores a ledger (image v4). A restart derives it the way a
// follower and a snapshot transfer do, by spending each batch's charge as
// gateway.Tenants.Replay streams the history, in the same pass that rebuilds
// backend and transcript. A sync whose durability is indeterminate (its
// group commit failed) suspends the whole tenant — syncs, queries, and
// stats — until a restart re-derives the provable committed prefix from
// the log.
//
// Group commit. Each shard worker owns one WAL segment and never blocks on
// it: appends are enqueued (store.AppendAt, no callback per entry) and the
// shard continues serving while the log writer commits the accumulated batch
// with one buffered write + flush (+ optional fsync), then reports the group
// to the shard's commit hook — one store.Group value, {N, Err, Start, End},
// on one channel send, however many syncs it carried. The worker keeps its
// appends in flight by value, in append order ({tenant, batch, reply, append
// time}, primary syncs and a replica's own appends alike), and finishes the
// group's N oldest on its own goroutine — acknowledgments and transcript
// events stay single-goroutine, nothing is built per append, the writer's
// queue keeps its capacity from group to group, and the commit cost
// amortizes across every entry that arrived during the previous flush (go
// run ./benchmark's store.group_size).
//
// One encoding per entry. The CRC frame of an entry is its canonical form —
// on the WAL, in history segments and on the replication stream the bytes
// are the same — so a store.Batch carries that frame by reference once it
// exists, and every later writer wraps it (store.Entry.Frame) instead of
// encoding the batch again. Two places set it: the gateway's connection
// reader, which decodes a sync straight into the frame its batch will carry
// (store.SyncEntry: the owner, the sync's Seq as its tick, the setup flag and
// the charge, the ciphertexts copied out of the request's uniform-width block
// — the only encode that sync ever gets, its CRC computed off the serial
// shard worker, and the connection's one read buffer free for the next frame
// as soon as the sync is decoded), and the frame decoders (DecodeEntryFrame
// on a replica, segment scans and StreamHistory in recovery), which have
// just CRC-verified the bytes they parsed. The shard worker uses a sync's
// frame only when the sync is the tenant's next tick; a duplicate, a gap or a
// refused charge drops it untouched. Three places wrap it: the WAL append, the
// spill out of the tail and the replication hub's Committed. The
// carried frame is re-derived rather than trusted whenever it is absent (a
// hand-built store.Entry, a batch decoded from a snapshot's inline tail) or
// does not fit the entry it rides on — its length is not exactly what the
// entry encodes to, or it names another owner or tick — and only that
// encode can fail. Nothing selects between wrapping and encoding but the
// batch itself.
//
// Tiered history. Gateway memory is independent of ingest history: every
// durable store bounds the committed batches a tenant keeps in RAM by its
// history window (gateway.Config.HistoryWindow, handed to the store; 0 is
// store.DefaultHistoryWindow, 16), applied in one place, Store.EnforceWindow,
// and everything older is spilled to append-only, CRC-framed
// history segments shared by the shard (the same frames as the WAL). The
// history tier is the outsourced ciphertext store: the ObliDB backend keeps
// a count of the records it was handed sealed and the enclave's aggregates,
// never the ciphertexts, so a tenant's RAM is its aggregates plus the window
// — per ingested record, real or dummy, the 9-byte join key and weight and
// its share of the sync's transcript event — plus a fixed part: 472 bytes in
// 7 heap objects for a new tenant (tenant, committed state, ledger, ObliDB instance, enclave,
// aggregates), pinned at ≤ 1 KiB in ≤ 10 by
// TestTenantFixedCost. Nothing a tenant shares with others is in it: every
// enclave opens with the node's one sealer for its key and every instance
// reads the one cost model, and what a tenant builds only once it is queried
// is bounded — an answer cache of at most Config.QueryCache entries (64 by
// default); the enclave keeps nothing per query.
// Only a manifest ref — segment id, byte offset, run length, run checksum,
// tick range — stays in memory per spilled run; spills fire at twice the
// window and extend the owner's previous ref in place when contiguous, so
// ref counts stay sublinear in history and RSS scales with the live window
// while total ingest grows without bound (pinned by ReadMemStats regression
// tests: a 20×-window ingest of large blobs into a backend that retains
// nothing, and 20,000 real sealed records into the default backend, at most
// 32 bytes of heap a record). Spilled bytes
// are flushed (and in fsync mode fsynced) before any snapshot manifest
// references them; until then the WAL still covers them, so a crash can
// only orphan a spill, never lose one.
//
// Snapshots and truncation. When the store reports a rotation due the worker
// quiesces (drains its in-flight commits), and the store streams all its
// tenants — clock and history manifest (segment refs + the inline tail, each
// batch written straight from the frame it carries), but neither transcript
// nor ledger, which that history determines (image v4) — to a temporary file
// through one reused 64 KiB buffer, never holding the image in memory, then
// installs it without renaming over the image standing there: that one is
// moved aside to shard-NNNN.prev.snap (a name recovery merges like any
// snapshot), the new one renamed into place and the directory fsynced in
// fsync mode, and only then is the aside copy unlinked and the segment
// truncated. A manifest spares the spilled batches, nothing else: every
// tenant's refs and tail are written every time, O(owners × (tail + refs))
// however little changed, though nothing per sync an owner ever made. So the
// trigger weighs what a rotation costs, in one place (store.RotateDue, asked
// by the shard worker in either role): at least Config.SnapshotEvery entries
// and at least as many log bytes as the last image took (the one compaction
// wrote, after a restart). Each image is paid for by the log written after
// it, so checkpoint bytes stay within log bytes plus the image still
// standing; the log between rotations — and recovery's replay — within one
// image's worth; and where an image grows with the log (a window wider than
// an owner's history), the same comparison spaces rotations geometrically. A
// failed rotation doubles the bytes the next one waits for. Recovery merges
// whatever the directory holds: snapshots from any era or shard count
// (highest clock whose manifest still checks out against the history segments
// wins per owner), then WAL entries in tick order, applying exactly those
// past the recovered clock — idempotent replay, torn tails treated as the
// normal crash shape, CRC damage stopping a segment at its longest valid
// prefix. Backends are rebuilt by *streaming* the logged ciphertext history
// through the one sealed ingest path, verbatim — spilled runs are validated
// (per-frame CRC, run CRC, owner, tick chain) and re-ingested frame by frame,
// never materialized — and each tenant's transcript and ledger are rebuilt
// together with its backend, one event and one charge per streamed batch, at
// no extra I/O. A snapshot in a retired format (v1–v3) is refused as corrupt
// and quarantined with the history segments it names. The directory is also
// compacted under the current shard mapping (each tail re-spilled by the live
// bound, Store.EnforceWindow — the one spill path — and flushed before a
// manifest names it; orphan history segments collected) before serving
// resumes.
//
// The differential acceptance tests kill a live durable gateway mid-run (no
// flush, no drain), restart it from disk, finish the trace, and pin every
// tenant's transcript bit-identical to an uninterrupted single-owner run —
// with the ledger derived at recovery equal to the uninterrupted one — across
// the history-window matrix {0 (the default), 1, 64}. cmd/dpsync-loadgen -crash N
// runs the same kill/restart/verify cycle across N seeds, and -durable
// reports the layer in process (wal_append_us, recovery_ms, the spill_*
// fields); go run ./benchmark --workload sync-durable measures it
// (sync_per_s, recovery_ms, disk_bytes_per_user_byte,
// store.append_commit_us_g*, store.spill_us_per_batch,
// store.recover_ms_per_1k_entries).
//
// # Fleet robustness
//
// A real fleet is hostile: connections reset mid-frame, clients vanish and
// return, slow tenants stop reading responses. Reconnection is a privacy
// property here — a client that cannot tell whether its sync committed
// before the transport died must not blindly retry, because a double-applied
// sync double-charges the ε ledger and appends a phantom transcript event.
// Three layers make the fleet survivable without touching the accounting:
//
// Resume protocol. Every sync carries the owner's next logical-clock value
// (wire.Request.Seq; there is no unsequenced sync — Seq 0 is a bad request),
// and the gateway applies syncs tick-ordered and idempotently: the expected
// next seq applies, anything at or below the owner's clock is acknowledged as
// a duplicate — without re-ingesting, re-charging, or re-recording, and with
// the owner's clock on its ack — and a gap is refused (seq-gap, naming the
// seq expected) with state untouched. A setup is Seq 1 (any other is a bad
// request), so a fresh session sends its setup at once: a plain ack means it
// applied, and a duplicate's ack on a setup sent once means the owner was set
// up before — edb.ErrAlreadySetup, with the session aligned at the ack's
// clock. A reconnecting client asks for the durable per-owner clock with a
// negotiated Resume frame (wire.MsgResume; served from live tenant state —
// every recovered owner is resident, so an owner without a tenant has clock
// 0) and realigns before its next upload. With client.WithReconnect a dead
// transport is redialed by the next request that needs it (capped
// exponential backoff plus jitter between dials; the requests waiting for
// the dial share it), a request lost with the transport is re-sent by its
// own waiter, and a failed upload resumes from the returned clock — so
// retransmits, re-sends, and duplicated frames all collapse into
// at-most-once application; a session keeps one sync in flight, so a re-send
// cannot overtake its successor. A re-sent setup acked as a duplicate is
// taken as the session's own.
//
// Per-tenant flow control. Each gateway connection has an admitted-request
// cap (gateway.Config.MaxInFlight): past it, requests are shed immediately
// (the backpressure refusal), touching no tenant state — shedding is
// privacy-neutral, as is every refusal decided before ingest, pinned per
// code — and a connection that also stops draining responses is severed at
// a fixed headroom past the cap.
// Reply queues are sized so a shard worker can always deliver a response
// without blocking: a slow or dead tenant sheds its own load and an
// unrelated tenant on the same shard keeps bounded latency (pinned by a
// fairness regression test). Every response write carries a deadline
// (gateway.Config.WriteTimeout: a peer that stops reading is severed, not
// waited on), and Gateway.Close severs connections that outlive the drain
// deadline instead of waiting on them forever. A cluster follower is served
// by this same connection loop (it is a gateway in replica role), so its
// read-only connections are bounded the same way — malformed-frame limit,
// in-flight cap and shed, write deadline, drain deadline — which the
// hostile-peer cases re-run against a replica pin.
//
// Fault injection. internal/faultnet wraps net.Conn in seeded,
// deterministic fault schedules — connection resets, torn mid-frame writes,
// stalls, duplicated frame delivery — injected at protocol frame
// boundaries (split with the codec's own wire.FrameHeader), with disruptive
// faults drawn from a bounded budget so runs terminate. internal/loadgen's
// fleet threads it, one schedule and budget a connection slot (with
// connection churn — each owner drops the connection it rides at ticks its
// seed draws, so with one owner a connection a seed fixes the reconnects and
// faults of a run — and an open-loop Poisson/bursty arrival model whose
// latency is measured from scheduled arrival times — no coordinated
// omission) behind
// cmd/dpsync-loadgen -churn/-faults/-open-loop, and the fault-matrix
// acceptance test pins per-owner transcripts and ε ledgers bit-identical to
// an uninterrupted run under the full schedule. churn_resume_ms,
// open_loop_p99_ms and backpressure_sheds are fields of that command's
// report; go run ./benchmark has no hostile-fleet workload yet (ROADMAP
// item 5).
//
// # Replication architecture
//
// One durable node still loses availability with the machine. internal/cluster
// replicates the gateway across nodes (cmd/dpsync-server -cluster /
// -replica-of) under two role rules:
//
// The primary serves and ships. Exactly one node — the holder of an
// election lease — runs the full gateway; a replication hub taps its
// durable commit stream and ships every committed WAL entry, in commit
// order, to connected followers (one replication protocol version; a
// follower proposing another is refused at the hello by the gateway, not
// negotiated down), each entry tagged with a per-shard stream offset (the
// shard's committed entry count). Followers resume from their last applied
// offset cursor, one per shard in shard order; a follower whose cursor has
// fallen off the primary's bounded catch-up ring is healed with a per-shard
// snapshot transfer instead, and one whose shard count differs is sent the
// primary's count and closed. Replication v4 keeps the client codec's
// rules — minimal-form varints, each fact once, one encoding per message —
// and its uvarint frame length (all that changed from v3, which is refused):
//
//	hello ack   u8 version (4) | HelloRefused
//	join        u8 len · node · uv n · n × uv offset
//	join ack    uv shards
//	entry       u8 1 (| 0x80 traced) · uv shard · uv offset
//	            · [u64 commit ns, live entries only] · [uv trace · uv parent, traced]
//	            · store entry frame (the rest: its own header states its length)
//	snap begin  u8 2 · uv shard · uv basis
//	snap end    u8 3 · uv shard
//	heartbeat   u8 4
//
// An untraced live entry below offset 2²¹ costs at most 13 B before its entry
// frame, a bootstrap entry 3 B, a heartbeat 1 B; a one-record sync ships in at
// most 116 B, its frame length one of them.
//
// A follower is a gateway in replica role, and always a valid restart image.
// The node runs one serving stack, gateway.Gateway, in whichever role it
// holds: on a follower it serves the node's listener from the start —
// read-only connections are answered, a sync or replication hello gets the
// refusal byte (not-primary's hello form), so clients rotate on instead of
// hanging —
// and the replication tail hands each shipped entry to the owner's shard
// worker (Gateway.Replicate), which applies it by the recovery rule through
// the code a live commit and a restart use (Tenant.Commit, all or nothing;
// Tenant.Ingest; the append to the replica's own WAL under the shard's
// pending-append accounting; the history window; store.RotateDue and the
// worker's quiesce). So at every instant the directory holds a provable
// committed prefix of every owner's history, with transcript, clock, and ε
// ledger describing exactly that prefix, and every owner it holds is resident
// in RAM — exactly the tenants recovery over that directory would build, kept
// current per entry. There is no eviction: a follower must fit what it may
// become. A step that cannot extend the replica (offset or tick gap, corrupt
// frame, refused charge) changes nothing, marks the shard for resync and ends
// the session; the tail waits for each step's outcome, so nothing of that
// shard is applied after it until a snapshot transfer heals it.
//
// The failover invariant follows: becoming primary is one role flip over
// state recovery would reproduce. Every node opens its directory as a replica
// (gateway.NewReplica) before it campaigns; the winner binds a hub at the
// shards' stream heads and flips its gateway to primary — at start before it
// serves, or, when the lease lapses (the primary is fenced the moment a
// renewal is refused, before anyone else can acquire), after it stops its tail
// and waits out each shard's queue and pending WAL appends: no pass over the
// directory, no cold caches, a promotion time that does not grow with history.
// The flip == recover == reference differential pins, at seeded kill points,
// that the flipped node, gateway.New over a copy of its directory, and that
// directory restarted as the lease winner serve the same (a replica whose own
// WAL append failed does not flip; it releases the lease, reopens its
// directory and campaigns again). Syncs the dead primary committed but never
// shipped are not lost — each owner's client still holds them in its resync
// window, discovers the promoted node's lower durable clock through the resume
// protocol, and re-uploads them verbatim — so every owner's transcript and ε
// ledger end bit-identical to an uninterrupted single-node run. A read is
// healed the same way: a query the promoted node refuses as not set up, from
// a session holding acknowledged syncs, runs the resume protocol and is asked
// once more. The failover
// differential test pins this across randomized kill ticks, connection churn,
// and replication-link faults; cmd/dpsync-loadgen -failover N runs it over N
// seeds and reports failover_ms, promote_ms, replication_lag_ms and
// replica_syncs_per_sec. go run ./benchmark --workload replica-read measures
// the steady state (cluster.repl_lag_ms, cluster.follower_apply_us,
// cluster.shipped_per_commit); a failover workload is ROADMAP item 5.
//
// # Read-path architecture
//
// Analyst queries scale independently of the sync path, and both halves
// of the read plane are ε-free consequences of the DP-Sync accounting
// model.
//
// Noise-reuse answer cache. A released DP answer is already noised:
// re-serving the identical bytes to a repeat of the same query is pure
// post-processing of a published release, so it costs zero additional
// privacy — the cache never touches the ε ledger, and a differential
// suite pins the ledger bit-identical across cache hits. Each shard
// worker keeps a per-tenant, LFU-bounded cache (gateway.Config.QueryCache;
// 0 selects the default capacity, negative disables) keyed by the query
// spec, storing the exact answer and cost bytes of the first evaluation.
// The owner's next committed sync invalidates their entries — a cached
// answer always describes a committed prefix the analyst could have
// queried directly. The cache is RAM-only by design: a crash discards it,
// so an answer computed from a sync that applied but never group-committed
// cannot survive a restart (the crash differential races an update against
// a kill and checks the reopened gateway recomputes from exactly the
// WAL-committed prefix). Hit/miss/eviction/invalidation counters export
// fleet-aggregate only — a per-tenant hit rate would fingerprint which
// tenants repeat which questions. The cache is built on first use: a tenant
// that is never queried holds none of it, the first answer allocates a
// four-entry slice (80 bytes an entry, grown by append and kept across
// invalidations), a lookup scans the live entries, and invalidation clears
// only those — O(live), not O(capacity), on every commit.
//
// Follower reads. A read-only hello ("DPSQ" + codec byte) opens a
// query/stats-only connection on any node, served by the gateway's one
// connection loop. On a follower the owner's tenant is resident and current —
// the shard worker that applies the stream is the one that answers, dropping
// the answer cache exactly where the replicated clock advances — so a read
// costs what it costs on a primary whatever the owner's age, and a read sees
// whole batches because one goroutine owns the shard, not because of a lock.
// A tenant whose incremental ingest erred is suspended, never rebuilt: ingest
// depends only on the key and the batches the primary already ingested, so a
// replay would fail the same way; its reads are refused as suspended. A
// tenant is rebuilt from history in one place, when a gateway opens its
// directory. It is the same machine, through the same Ingest, Commit and
// Read, on every node. A follower answers from the prefix its shard has
// applied, whole batches only, and never from an older prefix than its last
// answer; how far that lags the owner's data is bounded by the strategy's
// logical gap (§4.5), not by a cursor the caller names. Writes on a read
// connection are refused as not-primary, the sentinel a
// follower's write hello yields. client.WithReadReplica(addr) routes a
// session's queries to a replica over the same pipelined, multiplexed link
// the primary gets (internal/client has one frame reader, one flusher and
// one dial site, and both connections run them), so concurrent readers are in flight on the
// replica together, and falls back to the primary on any refusal — or on silence: the link's one read deadline follows the oldest
// read in flight, so a follower that accepts and then says nothing costs
// every read waiting on it the same single bounded wait, not one each, never
// the caller's answer, and never blocks Close. The replica link lives as the
// primary's does — a dead transport is redialed by the next read that needs
// it — but re-sends nothing: when it dies each read in flight goes to the
// primary once. dpsync-loadgen -query-mix/-replica-addr/-read-replica drive mixed
// read/write load through both paths. The two-node differential pins the
// contract under -race: every follower-served answer bit-identical to the
// primary's and to a single-owner reference, a partitioned follower
// serving exactly its frozen committed prefix, and convergence after heal.
// Measured by go run ./benchmark: query_per_s, query_p50_ms/query_p99_ms and
// qcache.hit_ratio on mixed-rw, cluster.replica_served_share on replica-read
// (cluster.replica_stale_share reads 0 by construction since codec 9).
//
// # Observability architecture
//
// internal/telemetry is the runtime metrics plane: lock-free, allocation-free
// instruments (atomic counters, gauges, fixed-bucket histograms, and a
// population distribution) behind a registry whose snapshot reads the same
// atomics the hot path writes — a scrape can never block a shard worker, and
// a histogram's count is derived from its bucket cells so snapshots are
// consistent under concurrent writers by construction. Components that
// already keep their own counters export through scrape-time collectors
// instead of double-counting on the hot path.
//
// The instrumented surfaces: gateway shard workers decompose per-sync
// latency into queue-wait / apply / WAL-commit / ack stage histograms (the
// ack stage, and the client-admit root span, end after the flush that put
// the response's bytes on the socket — a response that shared a write is
// still observed once, when that write returns). The stages are contiguous
// and each boundary is one clock read, shared by the stage it ends and the
// stage it starts: admission (the reader), dequeue (the shard worker; also
// apply start), apply end (also the WAL append time), the WAL writer's group
// commit time (the end of commit and start of ack for every sync in the
// group), and the connection writer's flush (every response it carried) —
// three reads per durable sync plus one per group and one per flush, where
// there were ten; the
// store's group-commit writer records group size and flush+fsync latency
// plus WAL, snapshot, and spill counters; the replication hub exports
// per-follower cursor lag in both entries and milliseconds; the cluster node
// exports role, lease renewals/losses, and promotion events. A follower is a
// gateway in replica role, so its reads carry the same queue-wait, cache-serve
// and ack instruments and sampled spans, and its /statusz the same per-shard
// durable lines (plus each shard's applied stream offset) — under the same
// privacy rule, swept by the same regression. Scrape safety is structural —
// shard workers publish pending/committed/applied counts into atomic mirrors
// that ShardStatuses and the collectors read without enqueuing onto any shard,
// with or without a registry.
//
// dpsync-server -admin ADDR serves the plane: Prometheus text on /metrics,
// the same samples as JSON on /varz, a human statusz (role, lease holder,
// per-shard WAL depth and committed offsets, follower cursors), a /healthz
// whose readiness is real (a primary is ready only holding an unexpired
// lease with a healthy WAL writer; a follower only while replicating within
// its contact bound), and net/http/pprof only behind the debug gate
// (-debug-tenant-metrics): a heap profile sizes what each tenant holds, so it
// shows an owner's record count. Logging is structured (log/slog) with node,
// shard, and owner-hash fields; telemetry.Discard silences it in tests.
//
// Request-scoped tracing sits beside the metrics plane: a sampled span
// recorder (telemetry.Tracer) whose unit of capture is one sync's span tree
// across every layer it crosses. The taxonomy is fixed — client-admit at
// the gateway root; queue-wait and apply on the shard worker; wal-flush
// (the group commit's write) with the entry's wal-commit under it, both
// recorded by the shard worker from the group's report;
// repl-ship on the replication sender; follower-apply on the far node,
// which joins the same trace through the trace ID and parent span a sampled
// entry's replication frame carries (the hub frames each entry once, with
// the trace context and the traced flag bit if its sync was sampled, without
// both otherwise). The
// sampling rule is one atomic add per admitted request — 1 in
// -trace-sample (default 64) requests record spans, an unsampled request
// allocates nothing — and any sync crossing the slow threshold (50ms) is
// captured into a separate slow-exemplar ring even when the sampler passed
// it by, so tail-latency evidence survives fast-traffic bursts. Traces
// surface three ways: /tracez renders the recent and slow rings as span
// trees (text, or JSON with ?format=json); /metrics attaches OpenMetrics
// exemplars linking stage-histogram buckets to the trace IDs that landed
// in them; and dpsync-loadgen -trace-out writes a drive's span trees to a
// file. BenchmarkTraceSampled (a captured request's span sequence against
// the same calls through a sampling-disabled tracer) and
// BenchmarkTracezRender (one /tracez render over full rings) in
// internal/telemetry price the plane, and go run ./benchmark --trace 1 reports
// trace.overhead_pct end to end.
//
// The privacy posture is part of the design, not an afterthought: the
// metrics endpoint is part of the adversary's view, so per-tenant series
// would republish exactly the update-pattern detail the synchronization
// strategies spend ε to hide. Everything exported is fleet-aggregate by
// default — cumulative ε spend appears only as a fleet-wide distribution —
// and per-owner series (committed clock, ε spend, labeled by FNV owner
// hash, never raw IDs) exist only behind the explicit
// gateway.Config.DebugTenantMetrics gate. Traces obey the same rule: span
// names are stage names, never tenant identity, and the only
// tenant-correlated field — an owner-hash annotation on the trace root —
// appears only behind the same debug gate. A regression test scrapes both
// exposition formats plus the /tracez render and fails on any
// owner-identifying output in the default configuration. The cost of the
// plane is priced where everything else is: go run ./benchmark's throughput
// metrics are measured telemetry-on, BenchmarkSyncOverhead is the per-sync
// instrument sequence, and BenchmarkScrape a full /metrics render.
package dpsync
