// Package repro is a from-scratch Go reproduction of "Benchmarking
// Personal Cloud Storage" (Drago, Bocchi, Mellia, Slatman, Pras —
// ACM IMC 2013): the methodology and tool for studying personal cloud
// storage services, applied to emulated reconstructions of Dropbox,
// SkyDrive, Wuala, Google Drive and Amazon Cloud Drive.
//
// The benchmark framework lives in internal/core; the service
// reconstructions in internal/client and internal/cloud; the network,
// DNS and measurement substrates in internal/{netem,tcpsim,httpsim,
// dnssim,trace,geo,whois,sim}; and the real data-plane algorithms in
// internal/{chunker,dedup,deltaenc,compressor,cryptobox,workload}.
//
// # Measurement engine
//
// Every published number is derived from the packet trace, so trace
// analysis and campaign repetition are the hot paths of the whole
// tool. They are organised as follows:
//
//   - internal/tcpsim is a closed-form transport engine: on loss-free
//     paths slow start is evaluated as the geometric cwnd schedule it
//     is (O(log n) per-round records) and the rate-limited steady
//     state collapses into a single trace.Span record plus one
//     duration formula — one Sink.Record call instead of
//     O(bytes/BDP) of them. Lossy paths are analytic too: the
//     next loss position is inverse-transform sampled from the
//     geometric run-length distribution (one RNG draw per loss event,
//     not one per round), loss-free runs between losses advance
//     through the same closed-form schedule, and each recovery epoch
//     (window halving, fast-retransmit record) is evaluated at the
//     sampled position — a lossy transfer costs O(losses), not
//     O(rounds). Clean and injected-loss transfers are pinned record
//     for record by committed goldens (internal/tcpsim's
//     testdata/golden_transfers.json), the sampler against the
//     per-round Bernoulli model by its own tests, which also pin the
//     exact record and draw counts of a 16 MB upload loss-free and at
//     2% loss; cmd/perfbench's clouddrive_loss workload times it.
//   - internal/trace.Sink is the recording boundary the transport
//     simulator writes against, with two implementations. Capture
//     records packets append-only; stragglers from connections
//     simulating on independent timelines land in a reorder buffer
//     that is merged back — stably — on first read, so recording is
//     O(1) and analyzers always see a time-sorted trace. Streamer
//     folds each packet into the per-flow accumulators of every
//     pre-registered window and discards it, so a repetition's trace
//     memory is O(flows) instead of O(packets). The fold is copy-free
//     and pointer-free: a plain record folds in place (only spans go
//     through Packet.Clip), every instant it keeps is an integer
//     offset from the first recorded one, so window bounds are
//     integer compares and the accumulators hold nothing for the GC
//     to scan, and per-flow state grows in chunks that are never
//     copied.
//   - trace.Span records carry their slicing parameters (slice size,
//     spacing, count), so a span that falls inside one window folds
//     in O(1); a streamed window clips one that crosses its bounds
//     (Packet.Clip) — byte- and time-identical to the per-round
//     records it stands for. Capture.ExpandedPackets is the
//     materialized per-round view, which the per-packet analyzers
//     (Bursts, UploadPauses, the cumulative timeline) walk; the CSV
//     trace format (v2) round-trips spans intact, and cmd/tracedump
//     reports stored records vs expanded packets.
//   - Capture.Window is a plain time cut (half-open [from, to)) of
//     the per-round trace: it binary-searches ExpandedPackets, so a
//     span contributes exactly its in-window slices, and on a
//     span-free trace the view is zero-copy, sharing the backing
//     store.
//   - Every scalar metric of Sect. 5 — byte accounting in both
//     directions, payload bracket, SYN timeline, connection count —
//     comes from one fold, StreamWindow's per-flow accumulator:
//     Streamer runs it at record time, and Capture.Analyze replays
//     the buffered records through one unbounded window. There are
//     no per-metric methods, so a caller reads each number off the
//     one Analysis it took. Seed-style per-metric scans in
//     internal/trace, sharing no code with the fold, pin it over
//     span-bearing traces and random window cuts in both modes.
//   - core.MeasureWindow reads all Sect. 5 metrics off two Analyze
//     passes (all flows, storage flows) of one window, in either
//     trace mode. One upload script (settle, open the window, create
//     the batch, sync) serves every single-upload study and campaign
//     cell. The campaign cells (RunSync, RunSyncLossy), RunSYNCount,
//     the what-if studies, the Fig. 4/5 sweeps and the delta and
//     compression detectors that read them stream; consumers that
//     genuinely re-window after the fact or walk individual packets —
//     RunIdle's cumulative timeline, AnalyzeProtocols' activity
//     clustering, the chunking, bundling and dedup detectors,
//     Discover, RunPropagation, RunRecovery, cmd/tracedump — keep a
//     buffered Capture.
//   - A testbed has a static half and a per-run half. The static
//     half draws no random numbers: cloud.Build's hosts, address
//     pools, whois records, DNS policies and PTR records, on a
//     netem.Topology (hosts in insertion order, plus the base RTT
//     from the test computer's vantage to every server, computed once
//     at Freeze) and a dnssim.Zone. The campaign driver builds it once
//     per (service, vantage) when a driver call builds its cells, and
//     every repetition and worker of the call shares it read-only.
//     Each repetition seeds only the per-run half: a netem.Network
//     (clock, RNG, jitter, loss, the test computer), a dnssim.System
//     (the RNG answers rotate with), a cloud.Deployment.Fresh copy
//     with an empty chunk store, the client, folder and trace. Every
//     draw stays per repetition, in a fixed order, so results do not
//     depend on which world a run shares. DNS answer rotation
//     permutes into a stack buffer (sim.RNG.PermInto) and appends to
//     a scratch slice the client reuses, so a resolve allocates
//     nothing. core's BenchmarkRepetitionFixedCost times one Cloud
//     Drive 100x10 kB repetition on a shared world, where the
//     per-run fixed cost dominates, and reports its allocations.
//   - internal/sim's RNG is PCG (RXS-M-XS-64) seeded through
//     SplitMix64: RNG.Fork is O(1) — two mixing rounds build a child's
//     whole state — and RNG.Fill generates eight bytes per step, so
//     file materialisation is memory-bandwidth bound.
//   - internal/workload generates files as content descriptors: a
//     folder file is the lazy recipe (Kind, Seed, Size), not bytes.
//     An edit keeps it a recipe: Append and InsertAt turn a
//     descriptor into spliced content (the descriptor plus the
//     inserted bytes at one offset), so the Fig. 4 edits never hold a
//     whole file either; only a second edit, or a file the script
//     writes, is eager bytes. The planner (internal/client)
//     materialises at the chunk boundary and only when a capability
//     genuinely needs bytes — CDC chunking, dedup hashing, delta
//     signatures, encryption, or a compression cache miss — into
//     pooled buffers released at the end of each plan; spliced
//     content always takes that path, and its chunks that end before
//     the splice keep the base descriptor's cache keys. A
//     no-capability client (Cloud Drive) plans entire uploads from
//     descriptors alone: zero content bytes ever exist.
//     cmd/perfbench's traced runs report the generation cost as
//     workload.cpu_frac.
//   - internal/compressor memoises size-only DEFLATE twice over:
//     descriptor-backed chunks key the cache by content identity
//     (generator, seed, size, chunk window) — no hashing, and on
//     repeats no generation — while ad-hoc bytes fall back to the
//     SHA-256 hash cache (still ~10x cheaper than the level-6 flate it
//     skips). Both caches are policy-free: an entry holds only facts
//     about the content — the deflated size and, for keyed entries,
//     the sniff verdict, with the size filled lazily so Smart never
//     deflates sniffed content — and answers Always and Smart alike.
//     Each cache is two bounded generations: when the current map
//     fills it becomes the previous one, lookups consult both, and an
//     entry survives at least 4096 later insertions. So the Fig. 6
//     matrix, whose per-(workload, repetition) contents are shared
//     across services, deflates each content once for Dropbox and
//     Google Drive together, as do repeated engine timings and the
//     parallel-vs-sequential identity checks; sizes stay exact.
//   - core.RunN is the parallel experiment scheduler: a generic
//     bounded-pool fan-out over arbitrary index spaces. Every
//     campaign-of-campaigns loop rides on it — the campaign driver's
//     flat cell x repetition rounds (every repeated layer, the
//     capability suite included; see Campaign driver below),
//     Fig4DeltaSeries/Fig5CompressionSeries over sweep sizes, and the
//     five Sect. 4 detectors of each capability probe — so one knob
//     (core.CampaignWorkers, default one worker per CPU; cmd/cloudbench
//     and cmd/capcheck -parallel) governs the whole experiment matrix
//     from a single shared worker budget.
//     Nested fan-outs draw from the same budget, so pools never
//     oversubscribe the machine. An inner pool opened while the budget
//     is spent starts on its caller alone, but every pool wider than
//     one worker is published in a process-wide registry: a worker
//     that runs out of cells (a drained helper, or a caller waiting
//     for its last cells) claims cells of the newest open pool with
//     room under its cap instead of idling. The size sweeps dispatch
//     their largest sizes first, so a sweep does not end on one
//     worker finishing a 10 MB cell alone.
//
// # Campaign driver
//
// Every repeated campaign layer — the single campaign, the Fig. 6
// matrix, the loss sweep, the location study, the full campaign and
// the Table 1 capability suite — runs through one driver,
// core.RunUntil, under a core.StopRule, and each layer has one body
// (runCampaign, fig6, lossSweep, locationStudy,
// detectCapabilities) that takes the rule. A layer is a set of cells;
// each round fans the next batch of every still-open cell onto one
// flat RunN (cell-major, rep-minor), then folds each cell's batch in
// index order and asks the rule whether that cell may stop. A
// capability cell is one service, and its repetition (a probe) is the
// five Sect. 4 detectors on one seed. The paper fixes every benchmark
// at 24 repetitions; that is the rule preset MinReps = MaxReps = reps
// with no precision target (fixedRule), so a fixed entry point
// (RunCampaign, Fig6Matrix, LossSweep, LocationStudy,
// RunFullCampaign, and DetectCapabilitiesAll at one probe) is the
// preset of its layer's body: a single round over the flat cell x
// repetition matrix, each cell keeping Summarize's statistics.
//
// The adaptive entry points (RunCampaignAdaptive, Fig6MatrixAdaptive,
// LossSweepAdaptive, LocationStudyAdaptive, DetectCapabilitiesAdaptive,
// RunFullCampaignAdaptive) give the same bodies a precision target
// instead: after an opening batch of MinReps, repetitions come
// AdaptiveBatch at a time, capped at MaxReps; each batch folds into
// an incremental Welford accumulator (stats.Accumulator, O(batch) per
// check, mean bit-identical to the batch formulas), and a cell stops
// once the relative CI95 half-width of the headline metrics
// (completion, goodput) is at or below the target. Confidence
// intervals use Student-t critical values (stats.TQuantile95 — exact
// table to df 30, Cornish–Fisher beyond), so small samples are not
// overconfident. Batch boundaries are constants of the rule, never
// derived from the worker count, and every cell folds in index order
// — the reps executed AND the resulting Summary are a pure function
// of (seed, rule), bit-identical at any -parallel setting. Rep k of a
// cell is the same repetition under every rule, so a fixed run is the
// prefix an adaptive run extends. StopRule.Validate rejects rules no
// campaign can honour, and the CLIs use it to refuse bad flags.
//
// Two variance-reduction levers (core.VarianceReduction) hit the
// target with fewer repetitions. Antithetic pairing gives rep 2k+1
// its twin's seed on a complemented PCG stream (sim.NewAntitheticRNG)
// and computes the stopping statistic over pair means; the mirroring
// must survive the consumers, so RNG.Jitter reflects the accepted
// uniform deviate (complemented raw words do not survive Int63n's
// modulo) and RNG.PermInto returns the reversed twin permutation (the
// antithetic construction for discrete choices — a k-prefix consumer
// like DNS server rotation sees the complementary end of the pool).
// On the golden Cloud Drive cell that pairing is what turns the
// far-server connection count — the variance driver — negatively
// correlated across twins, reaching the fixed-24-rep precision in 16
// repetitions (TestAntitheticBeatsPlainOnGoldenWorkload pins it). CRN
// gives every service a common repetition seed stream in the
// multi-service sweeps, so cross-service deltas are paired
// comparisons. Summaries record RepsUsed and AchievedRelHW, adaptive
// campaign files record the rule (precision, max_reps), and
// cmd/comparebench annotates each delta with whether it fits inside
// the union of the two runs' achieved confidence intervals.
//
// # Fleet engine
//
// core.RunFleet scales the per-client methodology to a service
// population: N simulated users (10⁵–10⁶) share one cloud backend for
// a whole service day, so population composition changes server-side
// bytes — the paper's Sect. 4.3 deduplication phenomenon studied at
// fleet scale. A user is never materialised: it is an index, and its
// whole day — session instants from a per-class arrival process
// (internal/workload's Poisson, bursty Gamma and diurnal
// Lewis–Shedler thinning), per-session file mixes, and the content
// address of every chunk — is derived on demand from
// fleetSeed(base, user, session). Files stay lazy descriptors and a
// chunk's address is a bijection of its descriptor tuple (seed, size,
// offset, length), so distinct chunks never share an address and a
// million-user day allocates O(active users), not O(users x files).
// Users are partitioned over a fixed stripe count (independent of the
// worker budget) and each stripe advances its users in virtual time
// through an event heap.
//
// The backend is dedup.Store, sharded by content-hash prefix with one
// plain mutex per shard — a single global lock under a concurrent
// fleet serialises every chunk lookup, and every hot-path store
// operation writes, so reader/writer bookkeeping buys nothing.
// Counters are per-shard atomics read without any lock. Each shard
// indexes its chunks with a flat linear-probe table of uint64 slots (a
// 32-bit hash tag and a slab index), confirmed against the full hash
// in the entry; entries live in pointer-free slab arenas addressed by
// index, so the garbage collector never scans the store's bulk state.
// Each 64-byte entry folds the chunk's hash and size together with its
// earliest claim, so a claim costs one slot line and one entry line.
// The capacity hint sizes a shard's first table and its slab blocks,
// and nothing is allocated per shard before its first insert, so a
// throwaway per-repetition store stays small.
//
// Cross-user dedup under parallelism runs as a one-pass claim/resolve
// protocol. The claim pass generates the day once: each session claims
// its chunks with its (virtual instant, user) pair — batched per
// (session, shard) group so a batch pays one lock acquisition
// (dedup.Store.ClaimBatchRef) — and the store keeps the earliest claim
// per chunk, a pure function of offered load whatever the execution
// interleaving. While claiming, each stripe records its session stream
// into two flat append-only arenas: one record per session (user,
// instant, file count, end of its chunk run) and one per chunk (its
// claimed store ref and size); the log holds no content address. The
// resolve pass replays those arenas instead of re-deriving the day —
// RNG forks, arrival draws and chunk addressing run once — and
// resolves each chunk's winner through its recorded ref
// (dedup.ChunkRef.WonBy), a direct entry read with no second index
// probe and no lock. The log is the resolve pass's only input: at
// 32 B a session and 16 B a chunk it costs about 0.3 GiB for a
// million-user day, about half what the store holds, and each
// stripe's arenas are released as its replay finishes. Catalog files'
// sizes are pure functions of class config and rank, precomputed into
// per-class tables so a popular-file reference draws no size.
//
// cmd/fleetbench reports the service-side load curves (bytes/s,
// concurrent connections, dedup ratio vs population size) and takes
// -cpuprofile/-memprofile for engine work; cmd/perfbench's fleet_day
// workload times a 100k-user day on a fresh sharded store; and
// scripts/fleetsmoke.sh byte-compares fleetbench reports across
// worker counts and store shard counts in CI.
//
// Determinism contract: every experiment cell derives all randomness
// from its own index (seed, testbed, RNG — see campaignSeed) and
// writes only its own result slot, so results are bit-identical to
// the sequential engine at any worker count and under any scheduling;
// -parallel only changes wall-clock time. The parallel-vs-sequential
// equivalence tests in internal/core/scheduler_test.go pin this for
// every lifted layer.
//
// The golden-equivalence tests in internal/trace, internal/chunker
// and internal/core pin the engine against the original
// scan-per-metric implementation. Pinned ("golden") values live in
// testdata/*.json via internal/goldenfile; a sanctioned refresh — an
// engine change that legitimately alters simulated behaviour, like
// the PCG content pipeline — regenerates them all with
// scripts/regen-golden.sh and declares the new snapshot baseline in
// a committed BASELINE_RESET marker, which scripts/trendcheck.sh then
// verifies corresponds to real drift (silent baseline rewrites fail
// CI either way). scripts/bench.sh snapshots the simulated metrics
// (BENCH_<sha>.json, a cmd/comparebench campaign file); cmd/perfbench
// measures wall-clock performance.
//
// The determinism contract is also machine-enforced: cmd/simlint
// (scripts/lint.sh, or go vet -vettool) runs four custom analyzers —
// walltime (no wall-clock reads in simulation packages),
// rngdiscipline (all randomness from seeded sim.RNG streams; no
// shared stream captured by scheduler cells), mapiter (no map
// iteration order reaching traces, driver output or float
// accumulation) and goldendiscipline (no hardcoded golden pins
// outside internal/goldenfile) — over every package in CI. Audited
// exceptions carry in-source `//simlint:allow <check>` directives;
// internal/analysis/README.md documents each invariant.
//
// The benchmarks in bench_test.go regenerate every table and figure:
//
//	go test -bench=. -benchmem
package repro
