//! The traced pass: `SloFrontend::run_open`'s event loop, driven from
//! this crate with a host span around every call into a layer.
//!
//! The loop makes the same calls in the same order as the frontend:
//! arrivals at their timestamps (rejecting impossible deadlines), FIFO
//! admission up to `free_slots`, `KvScheduler::tick`, then
//! `Trace::batch_rows` + `coalesce`, `Simulator::schedule_trace` (which
//! is what `run_trace` runs) and a `CycleClock` advance. The caller
//! checks that the lifecycles and makespan it produces equal the
//! frontend's; only then do its spans describe the frontend's program.

use crate::timed::{KernelTotals, Timed};
use lt_arch::{CycleClock, RunReport, ScheduleCacheStats, Simulator};
use lt_core::{ComputeBackend, NonGemmKind, Op, OpKind, Trace};
use lt_nn::serve::sched::KvSchedStats;
use lt_nn::{
    DecodeRequest, DecodeServeConfig, DecoderLm, KvScheduler, RequestLifecycle, RequestOutcome,
    SessionConfig,
};
use lt_runtime::loadgen::GenRequest;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::time::Instant;

/// Picoseconds per microsecond (the loadgen/lifecycle unit boundary).
const PS_PER_US: u64 = 1_000_000;

/// Op roles the modeled time is split into.
pub const ROLES: [&str; 6] = ["qkv", "attn", "ffn", "lm_head", "kv", "other"];

/// Index into [`ROLES`] of one op.
fn role(op: &Op) -> usize {
    match *op {
        Op::Gemm { kind, .. } => match kind {
            OpKind::QkvProj | OpKind::OutProj => 0,
            OpKind::AttnQk | OpKind::AttnAv => 1,
            OpKind::Ffn1 | OpKind::Ffn2 => 2,
            OpKind::LmHead => 3,
            _ => 5,
        },
        Op::NonGemm { kind, .. } => match kind {
            NonGemmKind::Softmax => 1,
            NonGemmKind::Gelu => 2,
            NonGemmKind::KvAppend | NonGemmKind::KvRead => 4,
            _ => 5,
        },
    }
}

/// Host spans and counts of one `KvScheduler::tick` that did work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TickSpan {
    /// Host ns inside `tick`.
    pub tick_ns: u64,
    /// Host ns of backend GEMMs inside that `tick` (a child span).
    pub kernel_ns: u64,
    /// Host ns in `batch_rows` + `coalesce`.
    pub merge_ns: u64,
    /// Host ns in `schedule_trace`.
    pub replay_ns: u64,
    /// Ops in the tick's per-session traces.
    pub ops: usize,
    /// Ops in the merged trace.
    pub merged_ops: usize,
    /// Tokens the tick emitted (first tokens plus decode steps).
    pub tokens: usize,
}

/// Everything one traced pass measured.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Per-request lifecycles, id order (comparable to the frontend's).
    pub records: Vec<RequestLifecycle>,
    /// Modeled ps from trace start to the last event.
    pub makespan_ps: u64,
    /// All replayed tick reports merged.
    pub total: RunReport,
    /// Modeled ms of the replayed windows per [`ROLES`] entry.
    pub role_ms: [f64; ROLES.len()],
    /// One span per tick that did work.
    pub ticks: Vec<TickSpan>,
    /// Host ns of `tick` calls that found nothing to do.
    pub idle_tick_ns: u64,
    /// Host ns of the whole pass.
    pub wall_ns: u64,
    /// Kernel totals over the whole pass.
    pub kernel: KernelTotals,
    /// The scheduler's counters at the end.
    pub sched: KvSchedStats,
    /// Schedule-cache counters at the end.
    pub cache: ScheduleCacheStats,
    /// Distinct GEMM ops `(kind, m, k, n, instances)` replayed.
    pub distinct_gemm_shapes: usize,
    /// MACs of every replayed trace.
    pub recorded_macs: u64,
    /// Most KV blocks in use after any tick.
    pub peak_blocks: usize,
    /// Prompt tokens of admitted requests.
    pub prompt_tokens: u64,
}

/// Runs `requests` open loop as `SloFrontend::run_open` does, with
/// spans. `config.workers` and `config.threads` are ignored, as the
/// frontend ignores them.
///
/// # Panics
///
/// Panics if `config` enables speculation or a request is not of the
/// `Standard` class: the frontend's class ordering and ragged merge are
/// not mirrored here.
pub fn run_traced<B: ComputeBackend + Clone>(
    model: &DecoderLm,
    sim: &Simulator,
    backend: Timed<B>,
    config: &DecodeServeConfig,
    requests: &[GenRequest],
) -> TracedRun {
    assert!(!config.spec.is_enabled(), "speculation is not mirrored");
    assert!(
        requests
            .iter()
            .all(|r| r.class == lt_runtime::SloClass::Standard),
        "only the Standard class is mirrored"
    );
    let start = Instant::now();
    let counters = backend.counters();
    let session_config = SessionConfig {
        seed: config.seed,
        quant: config.quant,
        kv_bits: config.arch.precision_bits,
    };
    let mut sched = KvScheduler::new(
        model,
        sim,
        backend,
        session_config,
        config.kv,
        config.max_active,
    )
    .with_prefill_chunk(config.prefill_chunk_tokens);
    let model_config = model.config();
    let mut order: Vec<&GenRequest> = requests.iter().collect();
    order.sort_by_key(|r| (r.arrival_us, r.id));
    let by_id: HashMap<usize, &GenRequest> = requests.iter().map(|r| (r.id, r)).collect();

    let mut clock = CycleClock::new();
    let mut records: BTreeMap<usize, RequestLifecycle> = BTreeMap::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut ticket_of: HashMap<u64, usize> = HashMap::new();
    let mut last_token_ps: HashMap<u64, u64> = HashMap::new();
    let mut min_prefill_ps: BTreeMap<usize, u64> = BTreeMap::new();
    let mut next_ticket = 0u64;
    let mut next_arrival = 0usize;

    let mut total = RunReport::default();
    let mut role_ms = [0.0; ROLES.len()];
    let mut ticks = Vec::new();
    let mut idle_tick_ns = 0u64;
    let mut shapes: BTreeSet<Op> = BTreeSet::new();
    let mut recorded_macs = 0u64;
    let mut peak_blocks = 0usize;
    let mut prompt_tokens = 0u64;

    loop {
        while next_arrival < order.len()
            && order[next_arrival].arrival_us * PS_PER_US <= clock.now_ps()
        {
            let request = order[next_arrival];
            next_arrival += 1;
            let mut record = RequestLifecycle {
                id: request.id,
                class: request.class,
                ttft_deadline_us: request.ttft_deadline_us,
                arrival_ps: request.arrival_us * PS_PER_US,
                admitted_ps: None,
                first_token_ps: None,
                finished_ps: None,
                itl_ps: Vec::new(),
                tokens: Vec::new(),
                outcome: RequestOutcome::Pending,
            };
            let len = request.prompt.len();
            let impossible = len > 0
                && len <= model_config.max_seq
                && request.ttft_deadline_us.is_some_and(|deadline_us| {
                    let floor = *min_prefill_ps.entry(len).or_insert_with(|| {
                        let report = sim.run_trace(&model_config.prefill_trace(len));
                        (report.latency.value() * 1e9).round() as u64
                    });
                    (deadline_us as u128) * (PS_PER_US as u128) < floor as u128
                });
            if impossible {
                record.outcome = RequestOutcome::Rejected;
            } else {
                queue.push_back(request.id);
            }
            records.insert(request.id, record);
        }

        let slots = sched.free_slots();
        let now = clock.now_ps();
        for id in queue.drain(..slots.min(queue.len())) {
            let request = by_id[&id];
            let ticket = next_ticket;
            next_ticket += 1;
            ticket_of.insert(ticket, id);
            records.get_mut(&id).expect("arrived").admitted_ps = Some(now);
            prompt_tokens += request.prompt.len() as u64;
            sched.submit(
                ticket,
                DecodeRequest {
                    prompt: request.prompt.clone(),
                    max_new_tokens: request.max_new_tokens,
                },
            );
        }

        let kernel_before = counters.totals().nanos;
        let tick_start = Instant::now();
        let outcome = sched.tick();
        let tick_ns = tick_start.elapsed().as_nanos() as u64;
        let Some(outcome) = outcome else {
            idle_tick_ns += tick_ns;
            if next_arrival < order.len() {
                clock.advance_to_us(order[next_arrival].arrival_us);
                continue;
            }
            break;
        };
        let mut span = TickSpan {
            tick_ns,
            kernel_ns: counters.totals().nanos - kernel_before,
            tokens: outcome.first_tokens.len() + outcome.emitted.iter().sum::<usize>(),
            ..TickSpan::default()
        };
        if !outcome.prefill_traces.is_empty() || !outcome.step_traces.is_empty() {
            let traces = || {
                outcome
                    .prefill_traces
                    .iter()
                    .chain(outcome.step_traces.iter())
            };
            span.ops = traces().map(Trace::len).sum();
            let merge_start = Instant::now();
            let merged = Trace::batch_rows(traces()).coalesce();
            span.merge_ns = merge_start.elapsed().as_nanos() as u64;
            let replay_start = Instant::now();
            let schedule = sim.schedule_trace(&merged, sim.config().dataflow);
            span.replay_ns = replay_start.elapsed().as_nanos() as u64;
            clock.advance(&schedule.total);

            span.merged_ops = merged.len();
            recorded_macs += merged.total_macs();
            for (op, report) in merged.ops().iter().zip(&schedule.per_op) {
                role_ms[role(op)] += report.latency.value();
                if matches!(op, Op::Gemm { .. }) {
                    shapes.insert(*op);
                }
            }
            total.merge(&schedule.total);
        }
        ticks.push(span);
        peak_blocks = peak_blocks.max(sched.pool().used_blocks());

        let now = clock.now_ps();
        for ticket in outcome.first_tokens {
            let record = records.get_mut(&ticket_of[&ticket]).expect("admitted");
            record.first_token_ps = Some(now);
            last_token_ps.insert(ticket, now);
        }
        for (ticket, emitted) in outcome.stepped.iter().zip(&outcome.emitted) {
            let last = last_token_ps
                .insert(*ticket, now)
                .expect("first token stamped");
            let record = records.get_mut(&ticket_of[ticket]).expect("admitted");
            record.itl_ps.push(now - last);
            for _ in 1..*emitted {
                record.itl_ps.push(0);
            }
        }
        settle(
            &mut sched,
            &mut records,
            &mut ticket_of,
            &mut last_token_ps,
            now,
        );
    }
    settle(
        &mut sched,
        &mut records,
        &mut ticket_of,
        &mut last_token_ps,
        clock.now_ps(),
    );
    TracedRun {
        records: records.into_values().collect(),
        makespan_ps: clock.now_ps(),
        total,
        role_ms,
        ticks,
        idle_tick_ns,
        wall_ns: start.elapsed().as_nanos() as u64,
        kernel: counters.totals(),
        sched: sched.stats().clone(),
        cache: sim.schedule_cache_stats(),
        distinct_gemm_shapes: shapes.len(),
        recorded_macs,
        peak_blocks,
        prompt_tokens,
    }
}

/// Retires finished and failed requests, as the frontend's `settle`.
fn settle<B: ComputeBackend + Clone>(
    sched: &mut KvScheduler<'_, B>,
    records: &mut BTreeMap<usize, RequestLifecycle>,
    ticket_of: &mut HashMap<u64, usize>,
    last_token_ps: &mut HashMap<u64, u64>,
    now: u64,
) {
    for (ticket, reply) in sched.drain_finished() {
        let id = ticket_of.remove(&ticket).expect("admitted");
        last_token_ps.remove(&ticket);
        let record = records.get_mut(&id).expect("admitted");
        record.finished_ps = Some(now);
        record.tokens = reply.tokens;
        record.outcome = RequestOutcome::Completed;
    }
    for ticket in sched.drain_failed() {
        let id = ticket_of.remove(&ticket).expect("admitted");
        last_token_ps.remove(&ticket);
        records.get_mut(&id).expect("admitted").outcome = RequestOutcome::Failed;
    }
}
