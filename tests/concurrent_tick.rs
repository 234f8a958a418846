//! A scheduler tick steps its resident sessions concurrently, on as
//! many threads as the backend reports (`ComputeBackend::parallelism`).
//! These tests pin that the fan-out is invisible in every output, on
//! the *noisy* DPTC backend, where a noise stream leaking between
//! sessions would show at once:
//!
//! * `ParallelBackend<DptcBackend>` at 1, 2 and 4 threads gives the same
//!   replies, per-tick outcomes, `KvSchedStats` (preemption events
//!   included), `PoolStats`, block-generation history and
//!   schedule-cache counters from a bare `KvScheduler`, and the same
//!   lifecycles, serving report and cache counters from `SloFrontend`;
//! * across chunked prefill (chunks 1 and 8), prefix sharing on a pool
//!   of the exact minimum size (copy-on-write under pressure), both
//!   preemption policies and speculative decoding at k = 2;
//! * a session that panics on a helper thread re-raises its own panic
//!   from `tick`, with its original message.

use lightening_transformer::arch::{ScheduleCacheStats, Simulator};
use lightening_transformer::core::{
    ComputeBackend, GaussianSampler, Matrix64, MatrixView, NativeBackend, RunCtx,
};
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm, SessionConfig};
use lightening_transformer::nn::kv::{PoolStats, PreemptPolicy};
use lightening_transformer::nn::serve::decode::{DecodeRequest, DecodeServeConfig, SpecConfig};
use lightening_transformer::nn::serve::lifecycle::{RequestLifecycle, ServingReport, SloFrontend};
use lightening_transformer::nn::serve::sched::{
    KvSchedStats, KvScheduler, KvServeConfig, TickOutcome,
};
use lightening_transformer::runtime::loadgen::LoadgenConfig;
use lightening_transformer::runtime::ParallelBackend;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, ThreadId};
use std::time::Duration;

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const BLOCK_TOKENS: usize = 4;

fn model() -> DecoderLm {
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut GaussianSampler::new(5));
    // Lets the self-speculative draft agree with the target often
    // enough that k = 2 both accepts and rolls back.
    model.taper_deep_blocks(0.25);
    model
}

fn noisy(threads: usize) -> ParallelBackend<DptcBackend> {
    ParallelBackend::new(DptcBackend::paper(8, 11), threads)
}

/// The smallest pool `KvServeConfig::validate` accepts for the tiny
/// model: one max_seq session plus a copy-on-write spare.
fn min_pool() -> usize {
    DecoderConfig::tiny().max_seq.div_ceil(BLOCK_TOKENS) + 1
}

/// One serving setup of the bare-scheduler sweep.
#[derive(Debug, Clone, Copy)]
struct Case {
    name: &'static str,
    chunk: usize,
    pool_blocks: usize,
    prefix_sharing: bool,
    preempt: PreemptPolicy,
    spec_k: usize,
}

const CASES: [Case; 5] = [
    Case {
        name: "chunk 1",
        chunk: 1,
        pool_blocks: 64,
        prefix_sharing: false,
        preempt: PreemptPolicy::SwapOut,
        spec_k: 0,
    },
    Case {
        name: "chunk 8, starved pool, swap-out",
        chunk: 8,
        pool_blocks: 16,
        prefix_sharing: false,
        preempt: PreemptPolicy::SwapOut,
        spec_k: 0,
    },
    Case {
        name: "chunk 8, starved pool, recompute",
        chunk: 8,
        pool_blocks: 16,
        prefix_sharing: false,
        preempt: PreemptPolicy::Recompute,
        spec_k: 0,
    },
    Case {
        name: "prefix sharing, minimum pool",
        chunk: 0,
        pool_blocks: 0, // min_pool()
        prefix_sharing: true,
        preempt: PreemptPolicy::SwapOut,
        spec_k: 0,
    },
    Case {
        name: "speculative k=2, starved pool",
        chunk: 0,
        pool_blocks: 16,
        prefix_sharing: false,
        preempt: PreemptPolicy::SwapOut,
        spec_k: 2,
    },
];

impl Case {
    fn kv(&self) -> KvServeConfig {
        KvServeConfig {
            block_tokens: BLOCK_TOKENS,
            pool_blocks: if self.pool_blocks == 0 {
                min_pool()
            } else {
                self.pool_blocks
            },
            prefix_sharing: self.prefix_sharing,
            preempt: self.preempt,
        }
    }
}

/// Eight requests; with prefix sharing on, they come in two groups that
/// share a 6-token prompt prefix (a block and a half, so the shared
/// partial block is copied on the first write past it).
fn requests(prefix_sharing: bool) -> Vec<DecodeRequest> {
    (0..8)
        .map(|i| {
            let prompt = if prefix_sharing {
                let mut p: Vec<usize> = (0..6).map(|t| (t * 3 + i % 2) % 16).collect();
                p.extend((0..i % 3).map(|t| (t + i) % 16));
                p
            } else {
                (0..4 + (i * 5) % 11).map(|t| (t * 7 + i) % 16).collect()
            };
            DecodeRequest {
                prompt,
                max_new_tokens: 5 + i % 4,
            }
        })
        .collect()
}

/// Everything a bare-scheduler run can show.
#[derive(Debug, PartialEq)]
struct SchedRun {
    replies: Vec<(u64, DecodeReply)>,
    ticks: Vec<TickOutcome>,
    stats: KvSchedStats,
    pool: PoolStats,
    /// Every block's generation: how often each id was freed, a
    /// fingerprint of which block ids were handed out.
    generations: Vec<u64>,
    cache: ScheduleCacheStats,
}

fn run_sched(case: Case, threads: usize) -> SchedRun {
    let m = model();
    let sim = Simulator::new(DecodeServeConfig::default().arch);
    let session = SessionConfig {
        seed: 17,
        ..SessionConfig::default()
    };
    let mut sched = KvScheduler::new(&m, &sim, noisy(threads), session, case.kv(), 6)
        .with_prefill_chunk(case.chunk)
        .with_speculation(case.spec_k);
    for (t, request) in requests(case.prefix_sharing).into_iter().enumerate() {
        sched.submit(t as u64, request);
    }
    let mut replies = Vec::new();
    let mut ticks = Vec::new();
    while sched.has_work() {
        ticks.extend(sched.tick());
        replies.extend(sched.drain_finished());
    }
    assert!(
        sched.drain_failed().is_empty(),
        "{}: no request fails",
        case.name
    );
    assert_eq!(
        sched.pool().used_blocks(),
        0,
        "{}: blocks leaked",
        case.name
    );
    replies.sort_by_key(|&(t, _)| t);
    let pool = sched.pool();
    SchedRun {
        replies,
        ticks,
        stats: sched.stats().clone(),
        pool: pool.stats(),
        generations: (0..pool.total_blocks())
            .map(|b| pool.generation(b))
            .collect(),
        cache: sim.schedule_cache_stats(),
    }
}

#[test]
fn a_bare_scheduler_is_bit_identical_at_every_width_on_the_noisy_backend() {
    for case in CASES {
        let reference = run_sched(case, THREAD_COUNTS[0]);
        assert_eq!(reference.replies.len(), 8, "{}", case.name);
        assert!(
            reference.stats.peak_resident_sessions >= 2,
            "{}: sessions must overlap for the fan-out to run",
            case.name
        );
        // Each case exercises what it is named for.
        if case.pool_blocks != 64 {
            assert!(
                reference.stats.preemptions > 0,
                "{}: the pool must run dry",
                case.name
            );
        }
        if case.prefix_sharing {
            assert!(reference.stats.prefix_hits > 0, "{}", case.name);
            assert!(reference.pool.cow_copies > 0, "{}", case.name);
        }
        if case.spec_k > 0 {
            let spec = reference.stats.spec;
            assert!(spec.accepted > 0 && spec.rolled_back > 0, "{spec:?}");
        }
        for threads in &THREAD_COUNTS[1..] {
            let run = run_sched(case, *threads);
            assert_eq!(run.replies, reference.replies, "{} at {threads}", case.name);
            assert_eq!(run.ticks, reference.ticks, "{} at {threads}", case.name);
            assert_eq!(run.stats, reference.stats, "{} at {threads}", case.name);
            assert_eq!(run.pool, reference.pool, "{} at {threads}", case.name);
            assert_eq!(
                run.generations, reference.generations,
                "{} at {threads}: block ids",
                case.name
            );
            assert_eq!(run.cache, reference.cache, "{} at {threads}", case.name);
        }
    }
}

fn run_frontend(
    cfg: &DecodeServeConfig,
    threads: usize,
) -> (Vec<RequestLifecycle>, ServingReport, ScheduleCacheStats) {
    let m = model();
    let sim = Simulator::new(cfg.arch.clone());
    let trace = LoadgenConfig::smoke(29, 24).generate();
    let (records, report) = SloFrontend::new(&m, &sim, noisy(threads), cfg).run_open(&trace);
    (records, report, sim.schedule_cache_stats())
}

#[test]
fn the_slo_frontend_is_bit_identical_at_every_width_on_the_noisy_backend() {
    for case in CASES {
        let cfg = DecodeServeConfig {
            max_active: 6,
            seed: 17,
            kv: case.kv(),
            prefill_chunk_tokens: case.chunk,
            spec: SpecConfig::with_k(case.spec_k),
            ..DecodeServeConfig::default()
        };
        let reference = run_frontend(&cfg, THREAD_COUNTS[0]);
        assert!(reference.1.completed > 0, "{}", case.name);
        for threads in &THREAD_COUNTS[1..] {
            let run = run_frontend(&cfg, *threads);
            assert_eq!(run.0, reference.0, "{} at {threads}: lifecycles", case.name);
            assert_eq!(run.1, reference.1, "{} at {threads}: report", case.name);
            assert_eq!(run.2, reference.2, "{} at {threads}: cache", case.name);
        }
    }
}

/// Native GEMMs that panic on a helper thread's `panic_at`-th GEMM.
/// Until then the test's own thread waits at its first GEMM, holding
/// one session, so the helper surely takes another. One block per
/// product, so nothing reaches the `ParallelBackend`'s pool (whose jobs
/// report panics by a message of their own).
#[derive(Debug, Clone)]
struct PanicsOnAHelper {
    caller: ThreadId,
    panic_at: usize,
    helper_calls: Arc<AtomicUsize>,
    /// Set (and notified) just before the helper panics.
    released: Arc<(Mutex<bool>, Condvar)>,
}

impl ComputeBackend for PanicsOnAHelper {
    fn name(&self) -> &str {
        "panics-on-a-helper"
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64 {
        let (released, signal) = &*self.released;
        if thread::current().id() == self.caller {
            let (_released, wait) = signal
                .wait_timeout_while(released.lock().unwrap(), Duration::from_secs(60), |r| !*r)
                .unwrap();
            assert!(!wait.timed_out(), "no helper thread took a session");
        } else if self.helper_calls.fetch_add(1, Ordering::SeqCst) + 1 == self.panic_at {
            *released.lock().unwrap() = true;
            signal.notify_all();
            panic!("injected failure at helper GEMM {}", self.panic_at);
        }
        NativeBackend.gemm(a, b, ctx)
    }

    fn preferred_block_rows(&self) -> usize {
        usize::MAX
    }
}

#[test]
fn a_session_panicking_on_a_helper_thread_keeps_its_message() {
    let m = model();
    let sim = Simulator::new(DecodeServeConfig::default().arch);
    let backend = PanicsOnAHelper {
        caller: thread::current().id(),
        panic_at: 3,
        helper_calls: Arc::default(),
        released: Arc::default(),
    };
    let calls = Arc::clone(&backend.helper_calls);
    let backend = ParallelBackend::new(backend, 2);
    assert_eq!(backend.parallelism(), 2);
    let kv = KvServeConfig {
        block_tokens: BLOCK_TOKENS,
        pool_blocks: 64,
        ..KvServeConfig::default()
    };
    // Chunked, so admission runs no GEMM: the first tick's four
    // prefill chunks are its first GEMMs, all inside the fan-out.
    let mut sched =
        KvScheduler::new(&m, &sim, backend, SessionConfig::default(), kv, 4).with_prefill_chunk(2);
    for t in 0..4u64 {
        sched.submit(
            t,
            DecodeRequest {
                prompt: vec![1, 2, 3],
                max_new_tokens: 4,
            },
        );
    }
    let payload = catch_unwind(AssertUnwindSafe(|| sched.tick()))
        .expect_err("the injected panic must reach the caller");
    let message = payload
        .downcast_ref::<String>()
        .expect("a formatted panic message");
    assert_eq!(message, "injected failure at helper GEMM 3");
    assert_eq!(calls.load(Ordering::SeqCst), 3, "the helper stopped there");
}
