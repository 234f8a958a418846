//! Continuous-batching decode serving (paper Section VI-B's remedy,
//! executed): worker threads interleave prefill and per-token decode
//! steps across many in-flight requests, admitting newcomers *between
//! token steps* — not at request boundaries — so the machine always has
//! a full batch of single-token work even though requests start and end
//! at different times.
//!
//! Every scheduler tick advances every active
//! [`crate::decode::DecodeSession`] by one
//! token and merges the sessions' recorded step traces into one
//! coalesced tick trace. Replaying that merged trace through the
//! accelerator model is the batching argument of Section VI-B made
//! executable: the per-session matrix-vector products (`[1, d] x [d, d]`
//! projections, `[1, dh] x [dh, ctx]` attention) coalesce into
//! multi-instance ops that fill hardware tiles a lone token would leave
//! idle, so the batched cycles-per-token drop below the one-at-a-time
//! cost — [`DecodeServerStats::batched_cycles`] vs.
//! [`DecodeServerStats::sequential_cycles`] in [`DecodeServer::stats`]
//! quantifies exactly that on every run.
//!
//! # Determinism
//!
//! A reply (token stream *and* per-token costs) is a pure function of
//! the model weights, the prompt, and `split_seed(seed, ticket)`. The
//! scheduler changes which sessions share a tick, never what a session
//! computes, so serving the same stream with 1, 2, or 4 workers — or a
//! different `max_active` — returns bit-identical replies
//! (`tests/runtime_determinism.rs`).

use super::{Intake, Pending, WorkerShell};
use crate::decode::{DecodeReply, DecoderLm, DraftLm};
use crate::quant::QuantConfig;
use crate::serve::sched::{KvScheduler, KvServeConfig};
use lt_arch::{ArchConfig, RunReport, Simulator};
use lt_core::{ComputeBackend, Trace};
use lt_runtime::{ParallelBackend, ThreadPool, ThreadsConfig};
use std::sync::{Arc, Mutex};

/// One autoregressive generation request.
#[derive(Debug, Clone)]
pub struct DecodeRequest {
    /// Prompt token ids (must fit the model's vocabulary and context).
    pub prompt: Vec<usize>,
    /// Number of tokens to generate (>= 1; the first comes from the
    /// prefill logits, the rest from decode steps).
    pub max_new_tokens: usize,
}

/// Environment variable read by [`SpecConfig::from_env`].
pub const LT_SPEC_K_ENV: &str = "LT_SPEC_K";

/// Speculative-decoding knobs ([`DecodeServeConfig::spec`]).
#[derive(Debug, Clone, Default)]
pub struct SpecConfig {
    /// Draft tokens proposed per speculative step; `0` (the default)
    /// leaves speculation off and serving byte-for-byte on the plain
    /// decode path.
    pub k: usize,
    /// An explicit draft model; `None` derives the self-speculative
    /// draft — the target's own bottom half — via
    /// [`DraftLm::from_target`] at scheduler construction.
    pub draft: Option<DraftLm>,
}

impl SpecConfig {
    /// Speculation depth `k` with the self-speculative draft.
    pub fn with_k(k: usize) -> Self {
        SpecConfig { k, draft: None }
    }

    /// Reads `LT_SPEC_K` from the environment: unset, empty, or
    /// unparsable all mean `0` (speculation off), so a stray value can
    /// never silently change what a run computes — speculation is
    /// bit-identical to plain decoding, and a bad value merely keeps
    /// the plain path.
    pub fn from_env() -> Self {
        let k = std::env::var(LT_SPEC_K_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or(0);
        SpecConfig::with_k(k)
    }

    /// Whether speculation is on.
    pub fn is_enabled(&self) -> bool {
        self.k > 0
    }
}

/// Decode-serving configuration.
#[derive(Debug, Clone)]
pub struct DecodeServeConfig {
    /// Worker threads, each holding its own clone of the weights and
    /// running its own continuous batch.
    pub workers: usize,
    /// Maximum sessions a worker keeps in flight at once (the
    /// continuous-batch width).
    pub max_active: usize,
    /// Root seed; session noise streams are `split_seed(seed, ticket)`.
    pub seed: u64,
    /// Operand fake-quantization applied to every forward pass.
    pub quant: QuantConfig,
    /// Accelerator model that costs every recorded trace (default:
    /// LT-B at 8 bits).
    pub arch: ArchConfig,
    /// Paged KV-cache knobs: block size, per-worker pool size (or `0`
    /// to derive it from `arch.kv_pool_bytes`), prefix sharing, and the
    /// preemption policy. Validated at [`DecodeServer::new`].
    pub kv: KvServeConfig,
    /// Host parallelism: `threads > 1` wraps the backend in a
    /// [`lt_runtime::ParallelBackend`] over one pool of that many
    /// threads shared by all workers. Each worker's scheduler tick then
    /// steps its resident sessions concurrently, up to `threads` at
    /// once (see [`KvScheduler::tick`]), and a GEMM big enough to split
    /// fans out as row-block jobs on the pool. Replies are
    /// bit-identical at every thread count. Default is sequential; read
    /// `LT_THREADS` with [`ThreadsConfig::from_env`].
    pub threads: ThreadsConfig,
    /// Chunked-prefill size in prompt tokens: `0` (default) prefills a
    /// whole prompt at admission; a positive chunk interleaves prefill
    /// pieces with running sessions' decode steps, bounding how long a
    /// long prompt can stall anyone else's next token (see
    /// [`KvScheduler::with_prefill_chunk`]). Replies are bit-identical
    /// either way for deterministic engines.
    pub prefill_chunk_tokens: usize,
    /// Speculative decoding: `spec.k > 0` makes every scheduler tick a
    /// draft-then-batched-verify round ([`KvScheduler::with_speculation`]),
    /// emitting up to `k + 1` tokens per session per tick with replies
    /// bit-identical to plain decoding. Read `LT_SPEC_K` with
    /// [`SpecConfig::from_env`].
    pub spec: SpecConfig,
}

impl Default for DecodeServeConfig {
    fn default() -> Self {
        DecodeServeConfig {
            workers: 2,
            max_active: 8,
            seed: 0,
            quant: QuantConfig::fp32(),
            arch: ArchConfig::lt_base(8),
            kv: KvServeConfig::default(),
            threads: ThreadsConfig::default(),
            prefill_chunk_tokens: 0,
            spec: SpecConfig::default(),
        }
    }
}

/// A handle to one in-flight decode request.
pub type PendingDecode = Pending<DecodeReply>;

/// Merges one scheduler tick's per-session step traces into the batched
/// decode form ([`Trace::batch_rows`]: each session's `[1, k] x [k, n]`
/// matrix-vector products stack into `[active, k] x [k, n]` GEMMs) and
/// costs it — the replayed-cycle metric behind the "batching fixes
/// memory-bound decode" claim. Weights load once per batched op instead
/// of once per session, and the stacked rows fill tile rows a lone
/// token would leave idle, so for `n` equal-geometry sessions the
/// merged cycles are well below `n` times a lone session's step cycles.
pub fn batched_tick_cost(step_traces: &[Trace], sim: &Simulator) -> RunReport {
    sim.run_trace(&Trace::batch_rows(step_traces).coalesce())
}

/// The speculative twin of [`batched_tick_cost`]: merges one tick's
/// target verify traces *and* draft traces with
/// [`Trace::batch_rows_ragged`] — sessions verify at different contexts
/// and depths (`k_eff` shrinks near a request's end), so their
/// attention rows stack with the shorter contexts causally padded and
/// charged — and replays the merged trace. The draft's ops batch across
/// sessions too, but remain distinct ops from the target's (fewer layer
/// instances), so the draft overhead stays visible in the replay.
pub fn speculative_tick_cost(
    step_traces: &[Trace],
    draft_traces: &[Trace],
    sim: &Simulator,
) -> RunReport {
    sim.run_trace(&Trace::batch_rows_ragged(step_traces.iter().chain(draft_traces)).coalesce())
}

/// The continuous-batching decode server. See the [module docs](self).
///
/// ```
/// use lt_core::{GaussianSampler, NativeBackend};
/// use lt_nn::decode::{DecoderConfig, DecoderLm};
/// use lt_nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer};
///
/// let mut rng = GaussianSampler::new(1);
/// let model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
/// let server = DecodeServer::new(model, NativeBackend, DecodeServeConfig::default());
/// let pending = server.submit(DecodeRequest { prompt: vec![1, 2, 3], max_new_tokens: 4 });
/// let reply = pending.wait();
/// assert_eq!(reply.tokens.len(), 4);
/// assert_eq!(reply.steps.len(), 3, "prefill covers the first token");
/// assert!(reply.steps.iter().all(|s| s.cycles > 0), "per-token replayed cost");
/// ```
#[derive(Debug)]
pub struct DecodeServer {
    shell: WorkerShell<DecodeRequest, DecodeReply>,
    /// Each worker's totals as of its latest tick.
    slots: Vec<Arc<Mutex<DecodeServerStats>>>,
}

/// A [`DecodeServer`]'s counters, summed over its workers
/// ([`DecodeServer::stats`]). All but the two cycle totals are read
/// from the workers' [`crate::serve::sched::KvSchedStats`] and
/// simulator schedule caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeServerStats {
    /// Requests fully served (malformed ones are drained, not counted).
    pub served: u64,
    /// Tokens produced by decode steps (excludes the prefill-sampled
    /// first token of each request — the memory-bound per-token regime).
    pub decoded_tokens: u64,
    /// Scheduler ticks that stepped at least one session;
    /// `decoded_tokens / ticks` is the realized continuous-batch width.
    pub ticks: u64,
    /// Replayed photonic cycles of the *merged* per-tick step traces —
    /// what the accelerator would spend running each tick's sessions as
    /// one batch.
    pub batched_cycles: u64,
    /// Replayed photonic cycles of every session's step costed alone —
    /// what the accelerator would spend serving the same tokens one
    /// request at a time (batch 1).
    pub sequential_cycles: u64,
    /// Sessions evicted from the KV pool under memory pressure.
    pub preemptions: u64,
    /// Preempted sessions brought back to residency.
    pub resumes: u64,
    /// Admissions that borrowed a cached prompt prefix (only nonzero
    /// with `kv.prefix_sharing` on).
    pub prefix_hits: u64,
    /// High-water mark of simultaneously KV-resident sessions on any
    /// one worker — how many decodes the pool actually held at once.
    pub peak_resident_sessions: usize,
    /// Draft tokens proposed by speculative steps (zero unless
    /// [`DecodeServeConfig::spec`] is enabled).
    pub spec_proposed: u64,
    /// Draft proposals the target accepted.
    pub spec_accepted: u64,
    /// Replayed draft-model cycles — the speculation overhead, itemized
    /// separately from the target's batched/sequential cycles.
    pub draft_cycles: u64,
    /// Schedule-cache hits ([`lt_arch::ScheduleCacheStats`]): per-token
    /// replay repeats the same GEMM shapes, so after warmup nearly every
    /// op costs a map lookup instead of a tile-plan rebuild.
    pub schedule_cache_hits: u64,
    /// Schedule-cache misses (tile plans built).
    pub schedule_cache_misses: u64,
}

impl DecodeServerStats {
    /// Adds another worker's totals (the residency peak takes the max).
    fn merge(&mut self, w: &DecodeServerStats) {
        self.served += w.served;
        self.decoded_tokens += w.decoded_tokens;
        self.ticks += w.ticks;
        self.batched_cycles += w.batched_cycles;
        self.sequential_cycles += w.sequential_cycles;
        self.preemptions += w.preemptions;
        self.resumes += w.resumes;
        self.prefix_hits += w.prefix_hits;
        self.peak_resident_sessions = self.peak_resident_sessions.max(w.peak_resident_sessions);
        self.spec_proposed += w.spec_proposed;
        self.spec_accepted += w.spec_accepted;
        self.draft_cycles += w.draft_cycles;
        self.schedule_cache_hits += w.schedule_cache_hits;
        self.schedule_cache_misses += w.schedule_cache_misses;
    }
}

impl DecodeServer {
    /// Starts `config.workers` continuous-batching workers, each with
    /// its own clone of the model weights and its own paged KV block
    /// pool.
    ///
    /// # Panics
    ///
    /// Panics if `config.kv` is invalid for this model and architecture
    /// (zero block size, or a pool too small to hold one full-context
    /// session — see [`KvServeConfig::validate`]).
    ///
    /// With [`DecodeServeConfig::threads`] parallel, the backend is
    /// wrapped in a [`ParallelBackend`] over one pool shared by every
    /// worker, so each tick steps its resident sessions concurrently
    /// and large GEMMs fan out as row-block jobs — with bit-identical
    /// replies, per the seed-partition contract.
    pub fn new<B: ComputeBackend + Clone + 'static>(
        model: DecoderLm,
        backend: B,
        config: DecodeServeConfig,
    ) -> Self {
        if config.threads.is_parallel() {
            let pool = Arc::new(ThreadPool::new(config.threads.threads()));
            return DecodeServer::spawn(model, ParallelBackend::with_pool(backend, pool), config);
        }
        DecodeServer::spawn(model, backend, config)
    }

    /// The monomorphic worker bring-up both construction paths share.
    fn spawn<B: ComputeBackend + Clone + 'static>(
        model: DecoderLm,
        backend: B,
        config: DecodeServeConfig,
    ) -> Self {
        // Reject impossible pools on the caller's thread, before any
        // worker starts.
        config.kv.validate(&model.config(), &config.arch);
        let workers = config.workers.max(1);
        let slots: Vec<Arc<Mutex<DecodeServerStats>>> =
            (0..workers).map(|_| Arc::default()).collect();
        let shell = WorkerShell::spawn("lt-decode-worker", workers, config.max_active, |w| {
            let slot = Arc::clone(&slots[w]);
            let model = model.clone();
            let backend = backend.clone();
            let config = config.clone();
            move |intake: &mut Intake<DecodeRequest, DecodeReply>| {
                worker_loop(&model, &backend, &config, intake, &slot)
            }
        });
        DecodeServer { shell, slots }
    }

    /// Enqueues a request; returns immediately with a reply handle.
    pub fn submit(&self, request: DecodeRequest) -> PendingDecode {
        self.shell.submit(request)
    }

    /// The server's counters now (each worker's as of its latest tick).
    pub fn stats(&self) -> DecodeServerStats {
        let mut total = DecodeServerStats {
            served: self.shell.served(),
            ..DecodeServerStats::default()
        };
        for slot in &self.slots {
            total.merge(
                &slot
                    .lock()
                    .expect("a decode worker panicked while publishing"),
            );
        }
        total
    }

    /// Drains outstanding requests, stops the workers, and returns the
    /// number of requests served.
    pub fn shutdown(self) -> u64 {
        self.shell.shutdown()
    }
}

/// The continuous-batching worker: a [`KvScheduler`] over this worker's
/// own block pool does the admission, reservation, preemption, and
/// stepping; the loop feeds it from the shared queue (blocking only
/// when the scheduler is idle), publishes its totals to `slot` after
/// every tick, and routes finished replies back to their clients.
/// Malformed requests (empty prompt, context overflow,
/// out-of-vocabulary token) are contained by the scheduler — the
/// offending request fails, and the worker survives.
fn worker_loop<B: ComputeBackend + Clone>(
    model: &DecoderLm,
    backend: &B,
    config: &DecodeServeConfig,
    intake: &mut Intake<DecodeRequest, DecodeReply>,
    slot: &Mutex<DecodeServerStats>,
) {
    let sim = Simulator::new(config.arch.clone());
    let mut sched = KvScheduler::from_config(model, &sim, backend.clone(), config);
    // The only counts that are this loop's own: the scheduler and the
    // simulator keep everything else.
    let (mut batched_cycles, mut sequential_cycles) = (0u64, 0u64);
    loop {
        // Intake: block only when there is nothing to step or resume;
        // top up free in-flight slots without blocking otherwise.
        let admitted = if sched.has_work() {
            intake.try_take(sched.free_slots())
        } else {
            match intake.next_batch() {
                Some(batch) => batch,
                None => break, // closed and drained
            }
        };
        for (ticket, request) in admitted {
            sched.submit(ticket, request);
        }

        if let Some(outcome) = sched.tick() {
            // Admission-only and prefill-only rounds (chunked mode)
            // carry no decode steps, so they cost nothing here.
            if !outcome.step_traces.is_empty() {
                let tick_cost = if config.spec.is_enabled() {
                    speculative_tick_cost(&outcome.step_traces, &outcome.draft_traces, &sim)
                } else {
                    batched_tick_cost(&outcome.step_traces, &sim)
                };
                batched_cycles += tick_cost.cycles;
                sequential_cycles += outcome.sequential_cycles;
            }
        }

        let stats = sched.stats();
        let cache = sim.schedule_cache_stats();
        *slot.lock().expect("stats readers never panic") = DecodeServerStats {
            served: 0, // counted once, by the shell
            decoded_tokens: stats.decoded_tokens,
            ticks: stats.ticks,
            batched_cycles,
            sequential_cycles,
            preemptions: stats.preemptions,
            resumes: stats.resumes,
            prefix_hits: stats.prefix_hits,
            peak_resident_sessions: stats.peak_resident_sessions,
            spec_proposed: stats.spec.proposed,
            spec_accepted: stats.spec.accepted,
            draft_cycles: stats.spec.draft_cycles,
            schedule_cache_hits: cache.hits,
            schedule_cache_misses: cache.misses,
        };

        for (ticket, reply) in sched.drain_finished() {
            intake.reply(ticket, reply);
        }
        for ticket in sched.drain_failed() {
            intake.fail(ticket);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decode::{DecodeSession, DecoderConfig, SessionConfig};
    use lt_core::{GaussianSampler, NativeBackend};
    use lt_dptc::DptcBackend;

    fn model() -> DecoderLm {
        let mut rng = GaussianSampler::new(5);
        DecoderLm::new(DecoderConfig::tiny(), &mut rng)
    }

    fn mixed_requests(n: usize) -> Vec<DecodeRequest> {
        (0..n)
            .map(|i| DecodeRequest {
                prompt: (0..(3 + i % 4)).map(|t| (i + t) % 16).collect(),
                max_new_tokens: 2 + i % 5,
            })
            .collect()
    }

    fn serve_all<B: ComputeBackend + Clone + 'static>(
        backend: B,
        cfg: DecodeServeConfig,
        requests: &[DecodeRequest],
    ) -> Vec<DecodeReply> {
        let server = DecodeServer::new(model(), backend, cfg);
        let pending: Vec<PendingDecode> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies: Vec<DecodeReply> = pending.into_iter().map(PendingDecode::wait).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    }

    #[test]
    fn serves_mixed_decode_requests_with_per_token_costs() {
        let requests = mixed_requests(9);
        let replies = serve_all(NativeBackend, DecodeServeConfig::default(), &requests);
        for (req, r) in requests.iter().zip(&replies) {
            assert_eq!(r.tokens.len(), req.max_new_tokens);
            assert_eq!(r.steps.len(), req.max_new_tokens - 1);
            assert!(r.tokens.iter().all(|&t| t < 16));
            assert!(r.prefill.cycles > 0);
            assert!(r.steps.iter().all(|s| s.cycles > 0 && s.edp() > 0.0));
            assert!(r.kv_cache_bytes > 0);
            // Every per-token report says where its window went.
            assert!(r
                .steps
                .iter()
                .all(|s| s.utilization > 0.0 && s.stalls.total().value() > 0.0));
        }
    }

    #[test]
    fn replies_do_not_depend_on_worker_count_or_batch_width() {
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let base = serve_all(
            backend.clone(),
            DecodeServeConfig {
                workers: 1,
                max_active: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        for (workers, max_active) in [(2, 4), (4, 8)] {
            let got = serve_all(
                backend.clone(),
                DecodeServeConfig {
                    workers,
                    max_active,
                    ..DecodeServeConfig::default()
                },
                &requests,
            );
            for (a, b) in base.iter().zip(&got) {
                assert_eq!(a, b, "workers={workers} max_active={max_active}");
            }
        }
    }

    #[test]
    fn a_malformed_request_does_not_poison_the_batch_or_the_worker() {
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
        );
        let good_before = server.submit(DecodeRequest {
            prompt: vec![1, 2],
            max_new_tokens: 2,
        });
        let bad = server.submit(DecodeRequest {
            prompt: vec![],
            max_new_tokens: 2,
        });
        let overflow = server.submit(DecodeRequest {
            prompt: vec![0; 40],
            max_new_tokens: 20,
        });
        let good_after = server.submit(DecodeRequest {
            prompt: vec![3, 4, 5],
            max_new_tokens: 3,
        });
        assert_eq!(good_before.wait().tokens.len(), 2);
        assert_eq!(good_after.wait().tokens.len(), 3, "worker survived");
        assert!(std::panic::catch_unwind(move || bad.wait()).is_err());
        assert!(std::panic::catch_unwind(move || overflow.wait()).is_err());
        assert_eq!(server.shutdown(), 2, "only the good requests count");
    }

    #[test]
    fn speculative_serving_replies_are_bit_identical_on_a_noisy_backend() {
        // The whole serving stack at k = 4 against the plain path, on
        // the noisy DPTC backend: speculation must change cycles and
        // counters, never replies — tokens, per-token costs, KV bytes.
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let plain = serve_all(
            backend.clone(),
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        let server = DecodeServer::new(
            model(),
            backend,
            DecodeServeConfig {
                workers: 1,
                spec: SpecConfig::with_k(4),
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<PendingDecode> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let spec: Vec<DecodeReply> = pending.into_iter().map(PendingDecode::wait).collect();
        assert_eq!(plain, spec, "speculation never changes a reply");
        let stats = server.stats();
        assert!(stats.spec_proposed > 0, "speculation must have run");
        assert!(stats.spec_accepted <= stats.spec_proposed);
        assert!(stats.draft_cycles > 0, "draft overhead is itemized");
        assert_eq!(
            stats.decoded_tokens,
            plain.iter().map(|r| r.steps.len() as u64).sum()
        );
        server.shutdown();
    }

    #[test]
    fn spec_env_parsing_is_forgiving() {
        // `from_env` is exercised without mutating the process
        // environment (tests run concurrently): the parsing contract is
        // the same closed-form expression applied to captured values.
        let parse = |v: Option<&str>| {
            SpecConfig::with_k(v.and_then(|v| v.trim().parse::<usize>().ok()).unwrap_or(0))
        };
        assert!(!parse(None).is_enabled());
        assert!(!parse(Some("")).is_enabled());
        assert!(!parse(Some("banana")).is_enabled());
        assert!(!parse(Some("0")).is_enabled());
        assert_eq!(parse(Some(" 4 ")).k, 4);
        assert!(!SpecConfig::default().is_enabled(), "off by default");
    }

    #[test]
    fn batched_ticks_cost_fewer_cycles_than_one_at_a_time() {
        // The Section VI-B claim in the replayed-cycle metric: sixteen
        // equal-geometry sessions stepped as one continuous batch cost
        // fewer cycles than the same sixteen tokens decoded at batch 1.
        let m = model();
        let sim = Simulator::new(ArchConfig::lt_base(8));
        let mut sessions: Vec<DecodeSession<NativeBackend>> = (0..16)
            .map(|t| {
                DecodeSession::new(
                    &m,
                    t,
                    vec![1, 2, 3, 4],
                    4,
                    NativeBackend,
                    SessionConfig::default(),
                )
            })
            .collect();
        for s in sessions.iter_mut() {
            s.prefill(&m, &sim);
        }
        let traces: Vec<Trace> = sessions.iter_mut().map(|s| s.step(&m, &sim)).collect();
        let single: u64 = sessions
            .iter()
            .map(|s| s.last_step_cost().unwrap().cycles)
            .sum();
        let batched = batched_tick_cost(&traces, &sim).cycles;
        assert!(
            batched < single,
            "batch 16 must beat 16x batch 1: {batched} vs {single}"
        );
        // Tokens/s at batch 16 = 16 tokens / batched cycles, vs batch 1
        // = 1 token / (single/16) cycles: the ratio is single/batched.
        assert!(
            single as f64 / batched as f64 > 2.0,
            "tile filling should be worth well over 2x: {single}/{batched}"
        );
    }

    #[test]
    #[should_panic(expected = "cannot hold one max_seq")]
    fn a_pool_too_small_for_one_session_is_rejected_before_workers_start() {
        let _ = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                kv: KvServeConfig {
                    block_tokens: 16,
                    pool_blocks: 2, // tiny() needs ceil(48/16) + 1 = 4
                    ..KvServeConfig::default()
                },
                ..DecodeServeConfig::default()
            },
        );
    }

    #[test]
    fn a_pressured_server_preempts_but_replies_are_unchanged() {
        // Same requests through an ample pool and a starved pool: the
        // starved server must preempt (memory pressure is real) yet
        // reply bit-identically (swap-out moves bytes, not values).
        // Small prompts admit cheaply, then every context grows to 7
        // blocks — 8 x 7 = 56 blocks against a 25-block pool.
        let requests: Vec<DecodeRequest> = (0..8)
            .map(|i| DecodeRequest {
                prompt: vec![i % 16, (i + 3) % 16],
                max_new_tokens: 12,
            })
            .collect();
        let roomy = serve_all(
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                ..DecodeServeConfig::default()
            },
            &requests,
        );
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                kv: KvServeConfig {
                    block_tokens: 2,
                    pool_blocks: 25,
                    ..KvServeConfig::default()
                },
                ..DecodeServeConfig::default()
            },
        );
        let pending: Vec<PendingDecode> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let tight: Vec<DecodeReply> = pending.into_iter().map(PendingDecode::wait).collect();
        let stats = server.stats();
        assert!(stats.preemptions > 0, "the small pool must evict");
        assert_eq!(stats.preemptions, stats.resumes);
        assert!(stats.peak_resident_sessions >= 2, "still batching");
        server.shutdown();
        assert_eq!(
            roomy, tight,
            "preemption may delay tokens, never change them"
        );
    }

    #[test]
    fn continuous_admission_interleaves_requests_mid_flight() {
        // One worker, wide batch: submit a long request, then while it
        // decodes, short ones join and finish — continuous batching (the
        // realized batch width exceeds 1 even with a single worker).
        let server = DecodeServer::new(
            model(),
            NativeBackend,
            DecodeServeConfig {
                workers: 1,
                max_active: 8,
                ..DecodeServeConfig::default()
            },
        );
        let long = server.submit(DecodeRequest {
            prompt: vec![1, 2, 3],
            max_new_tokens: 12,
        });
        let shorts: Vec<_> = (0..6)
            .map(|i| {
                server.submit(DecodeRequest {
                    prompt: vec![i % 16, (i + 1) % 16],
                    max_new_tokens: 3,
                })
            })
            .collect();
        assert_eq!(long.wait().tokens.len(), 12);
        for s in shorts {
            assert_eq!(s.wait().tokens.len(), 3);
        }
        let stats = server.stats();
        assert_eq!(stats.served, 7);
        assert!(stats.ticks > 0);
        assert!(stats.decoded_tokens >= stats.ticks, "width >= 1");
        assert!(stats.batched_cycles <= stats.sequential_cycles);
        server.shutdown();
    }

    /// Serves `requests` on one worker that starts only once all of
    /// them are queued, so its first intake takes the whole mix and
    /// every counter is a pure function of the mix (an ungated worker
    /// may wake between two submits and admit a partial batch).
    fn gated_one_worker_stats(
        config: &DecodeServeConfig,
        requests: &[DecodeRequest],
    ) -> DecodeServerStats {
        let (open, gate) = std::sync::mpsc::channel::<()>();
        let mut gate = Some(gate);
        let slot: Arc<Mutex<DecodeServerStats>> = Arc::default();
        let shell = WorkerShell::spawn("lt-decode-gated", 1, config.max_active, |_| {
            let gate = gate.take().expect("one worker");
            let slot = Arc::clone(&slot);
            let config = config.clone();
            move |intake: &mut Intake<DecodeRequest, DecodeReply>| {
                let _ = gate.recv();
                worker_loop(&model(), &NativeBackend, &config, intake, &slot)
            }
        });
        let server = DecodeServer {
            shell,
            slots: vec![slot],
        };
        let pending: Vec<PendingDecode> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        drop(open);
        for p in pending {
            p.wait();
        }
        let stats = server.stats();
        assert_eq!(server.shutdown(), requests.len() as u64);
        stats
    }

    #[test]
    fn stats_snapshot_is_pinned_on_a_pressured_pool_and_a_speculative_run() {
        // Pinned against the values the per-counter getters reported
        // before `stats()` replaced them, on the same mixes, so the
        // snapshot's derivation from the scheduler and the simulator
        // adds or drops nothing.
        let pressured: Vec<DecodeRequest> = (0..8)
            .map(|i| DecodeRequest {
                prompt: vec![7, 9, i % 3, i % 3 + 3],
                max_new_tokens: 12,
            })
            .collect();
        let config = DecodeServeConfig {
            workers: 1,
            kv: KvServeConfig {
                block_tokens: 2,
                pool_blocks: 25,
                prefix_sharing: true,
                ..KvServeConfig::default()
            },
            ..DecodeServeConfig::default()
        };
        assert_eq!(
            gated_one_worker_stats(&config, &pressured),
            DecodeServerStats {
                served: 8,
                decoded_tokens: 88,
                ticks: 22,
                batched_cycles: 778,
                sequential_cycles: 2864,
                preemptions: 8,
                resumes: 8,
                prefix_hits: 5,
                peak_resident_sessions: 8,
                spec_proposed: 0,
                spec_accepted: 0,
                draft_cycles: 0,
                schedule_cache_hits: 762,
                schedule_cache_misses: 86,
            }
        );
        let config = DecodeServeConfig {
            workers: 1,
            spec: SpecConfig::with_k(4),
            ..DecodeServeConfig::default()
        };
        assert_eq!(
            gated_one_worker_stats(&config, &mixed_requests(8)),
            DecodeServerStats {
                served: 8,
                decoded_tokens: 21,
                ticks: 4,
                batched_cycles: 377,
                sequential_cycles: 973,
                preemptions: 0,
                resumes: 0,
                prefix_hits: 0,
                peak_resident_sessions: 8,
                spec_proposed: 20,
                spec_accepted: 4,
                draft_cycles: 429,
                schedule_cache_hits: 303,
                schedule_cache_misses: 149,
            }
        );
    }
}
