//! One benchmark run: timed untraced passes through `SloFrontend`, a
//! traced pass, the correctness checks and the metrics.

use crate::stats::{p50, peak_rss_mb, tail, Pct, Spread};
use crate::timed::Timed;
use crate::traced::{run_traced, TracedRun, ROLES};
use crate::workload::{BackendKind, Workload};
use lt_arch::Simulator;
use lt_core::{ComputeBackend, NativeBackend};
use lt_dptc::DptcBackend;
use lt_nn::{DecodeRequest, KvScheduler, RequestLifecycle, RequestOutcome, SessionConfig};
use lt_nn::{ServingReport, SloFrontend};
use lt_runtime::loadgen::GenRequest;
use lt_runtime::ParallelBackend;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

/// Untraced passes a run makes at least (the host medians need them).
const MIN_PASSES: usize = 3;
/// Untraced + traced pass pairs a traced run makes at least.
const MIN_TRACED_PAIRS: usize = 2;

/// Which clock a number is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Wall time of the Rust program on this host.
    Host,
    /// Time, cycles and energy charged by `lt_arch::Simulator`: exact,
    /// and equal on every host for a given seed.
    Model,
    /// A count of program events: no clock, and exact for a given seed.
    Count,
}

impl Clock {
    /// The label printed next to a metric.
    pub fn label(self) -> &'static str {
        match self {
            Clock::Host => "host",
            Clock::Model => "model",
            Clock::Count => "count",
        }
    }
}

/// One named number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Clock it was read from.
    pub clock: Clock,
    /// Value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, clock: Clock, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        clock,
        value,
    }
}

/// Everything a run found.
#[derive(Debug, Clone)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Requests attempted.
    pub attempted: usize,
    /// Ids of requests that failed, were rejected or mismatched.
    pub failed_ids: BTreeSet<usize>,
    /// What went wrong, one line each (empty when correct).
    pub failures: Vec<String>,
    /// End-to-end metrics (`BENCHMARK.json` `end_to_end`).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (`BENCHMARK.json` `per_layer`).
    pub per_layer: Vec<Metric>,
    /// Min/median/p90 of every host metric over the repeats.
    pub spreads: Vec<(String, Spread)>,
    /// The percentile each latency metric used and its sample count.
    pub percentiles: Vec<(&'static str, Pct)>,
    /// Untraced and traced passes made.
    pub passes: (usize, usize),
}

impl Report {
    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Runs workload `w` on the trace of `seed`: a traced pass that also
/// warms up, untraced passes for about `seconds` of host time, then
/// the checks. With `trace`, every untraced pass is followed by another
/// traced one, so the per-layer host numbers are medians too.
pub fn measure(w: &Workload, seed: u64, seconds: f64, trace: bool) -> Report {
    match w.backend {
        BackendKind::Native => measure_with(w, seed, seconds, trace, || NativeBackend),
        BackendKind::Photonic { threads } => {
            let noise = w.noise_seed();
            measure_with(w, seed, seconds, trace, move || {
                ParallelBackend::new(DptcBackend::paper(8, noise), threads)
            })
        }
    }
}

/// Set-ups timed before every timed pass, the pass's own included, and
/// the number of batches `setup_s` is the median of.
///
/// A set-up takes well under a millisecond, so one sample sees only the
/// state of the core it ran on at that instant; on a shared host that
/// state flips within a second. Samples are therefore taken before every
/// pass, spread over the whole run, and dealt round-robin into
/// `SETUP_BATCHES` batches whose means each span the run.
const SETUP_BATCHES: usize = 5;

/// The median over [`SETUP_BATCHES`] batches of the mean set-up time.
/// `samples` holds `SETUP_BATCHES` samples per pass, in order; sample
/// `r` of pass `i` goes to batch `(r + i) % SETUP_BATCHES`, so every batch
/// draws each position within a pass equally often.
fn setup_median(samples: &[f64]) -> Spread {
    let mut sums = [0.0; SETUP_BATCHES];
    let mut counts = [0usize; SETUP_BATCHES];
    for (t, s) in samples.iter().enumerate() {
        let batch = (t % SETUP_BATCHES + t / SETUP_BATCHES) % SETUP_BATCHES;
        sums[batch] += s;
        counts[batch] += 1;
    }
    let means: Vec<f64> = sums
        .iter()
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .map(|(sum, n)| sum / n as f64)
        .collect();
    Spread::of(&means)
}

/// What a user pays before the first request: weights, simulator (with
/// a cold schedule cache) and request trace. Returns them with the host
/// seconds they took. The backend is not part of it: on
/// `photonic-decode` it spawns a thread pool, whose start-up time
/// measures the OS scheduler on a shared host, not this program.
fn set_up(w: &Workload, seed: u64) -> (lt_nn::DecoderLm, Simulator, Vec<GenRequest>, f64) {
    let start = Instant::now();
    let model = w.build_model();
    let sim = Simulator::new(w.arch());
    let requests = w.requests(seed);
    (model, sim, requests, start.elapsed().as_secs_f64())
}

fn measure_with<B, F>(w: &Workload, seed: u64, seconds: f64, trace: bool, make: F) -> Report
where
    B: ComputeBackend + Clone,
    F: Fn() -> B,
{
    let config = w.serve_config();
    let mut failures = Vec::new();
    let mut failed_ids = BTreeSet::new();
    let mut setups: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    // The first traced pass is also the warm-up: it runs every code path
    // the timed passes run, so none of them is the first.
    let mut traced: Vec<TracedRun> = vec![traced_pass(w, &make, seed)];
    let mut reference: Option<(Vec<GenRequest>, Vec<RequestLifecycle>, ServingReport)> = None;
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    loop {
        for _ in 1..SETUP_BATCHES {
            setups.push(set_up(w, seed).3);
        }
        let (model, sim, requests, setup_s) = set_up(w, seed);
        setups.push(setup_s);
        let backend = make();
        let run_start = Instant::now();
        let (records, report) =
            SloFrontend::new(&model, &sim, backend, &config).run_open(&requests);
        let wall_s = run_start.elapsed().as_secs_f64();
        walls.push(wall_s);
        match &reference {
            None => reference = Some((requests, records, report)),
            Some((_, first, first_report)) => {
                for (a, b) in first.iter().zip(&records) {
                    if a != b {
                        failed_ids.insert(a.id);
                        failures.push(format!(
                            "request {}: pass {} differs from pass 1",
                            a.id,
                            walls.len()
                        ));
                    }
                }
                if *first_report != report {
                    failures.push(format!(
                        "pass {}: serving report differs from pass 1",
                        walls.len()
                    ));
                }
            }
        }
        if trace {
            traced.push(traced_pass(w, &make, seed));
        }
        let enough = if trace {
            walls.len() >= MIN_TRACED_PAIRS
        } else {
            walls.len() >= MIN_PASSES
        };
        // Stop at the pass boundary nearest the budget, so a run lasts
        // `seconds` give or take half a pass rather than up to a whole
        // pass longer.
        let half_pass = Duration::from_secs_f64(wall_s / 2.0);
        if enough && started.elapsed() + half_pass >= budget {
            break;
        }
    }
    let (requests, records, report) = reference.expect("at least one pass ran");

    for r in &records {
        if r.outcome != RequestOutcome::Completed {
            failed_ids.insert(r.id);
            failures.push(format!("request {}: {:?}", r.id, r.outcome));
        }
    }
    for (i, t) in traced.iter().enumerate() {
        if t.makespan_ps != report.elapsed_ps {
            failures.push(format!(
                "traced pass {}: makespan {} ps, frontend {} ps",
                i + 1,
                t.makespan_ps,
                report.elapsed_ps
            ));
        }
        for (a, b) in records.iter().zip(&t.records) {
            if a != b {
                failed_ids.insert(a.id);
                failures.push(format!(
                    "request {}: traced pass {} differs from the frontend",
                    a.id,
                    i + 1
                ));
            }
        }
    }
    if w.backend == BackendKind::Native {
        for id in solo_mismatches(w, &make, &requests, &records) {
            failed_ids.insert(id);
            failures.push(format!(
                "request {id}: tokens differ from the request decoded alone"
            ));
        }
    }

    let mut out = Report {
        workload: w.name,
        attempted: requests.len(),
        failed_ids,
        failures,
        end_to_end: Vec::new(),
        per_layer: Vec::new(),
        spreads: Vec::new(),
        percentiles: Vec::new(),
        passes: (walls.len(), traced.len()),
    };
    end_to_end(
        &mut out, &requests, &records, &report, &setups, &walls, &traced[0],
    );
    per_layer(&mut out, &walls, &traced);
    out
}

/// One traced pass with its own set-up.
fn traced_pass<B: ComputeBackend + Clone>(
    w: &Workload,
    make: &impl Fn() -> B,
    seed: u64,
) -> TracedRun {
    let (model, sim, requests, _) = set_up(w, seed);
    run_traced(
        &model,
        &sim,
        Timed::new(make()),
        &w.serve_config(),
        &requests,
    )
}

/// Ids of completed requests whose tokens differ from the same request
/// decoded alone through a fresh `KvScheduler`.
fn solo_mismatches<B: ComputeBackend + Clone>(
    w: &Workload,
    make: &impl Fn() -> B,
    requests: &[GenRequest],
    records: &[RequestLifecycle],
) -> Vec<usize> {
    let config = w.serve_config();
    let model = w.build_model();
    let sim = Simulator::new(w.arch());
    let session = SessionConfig {
        seed: config.seed,
        quant: config.quant,
        kv_bits: config.arch.precision_bits,
    };
    let mut mismatched = Vec::new();
    for (request, record) in requests.iter().zip(records) {
        if record.outcome != RequestOutcome::Completed {
            continue;
        }
        let mut sched = KvScheduler::new(&model, &sim, make(), session, config.kv, 1)
            .with_prefill_chunk(config.prefill_chunk_tokens);
        sched.submit(
            0,
            DecodeRequest {
                prompt: request.prompt.clone(),
                max_new_tokens: request.max_new_tokens,
            },
        );
        while sched.has_work() {
            sched.tick();
        }
        let reply = sched.drain_finished().pop().map(|(_, reply)| reply.tokens);
        if reply.as_ref() != Some(&record.tokens) {
            mismatched.push(request.id);
        }
    }
    mismatched
}

fn seconds(ns: u64) -> f64 {
    ns as f64 * 1e-9
}

fn end_to_end(
    out: &mut Report,
    requests: &[GenRequest],
    records: &[RequestLifecycle],
    report: &ServingReport,
    setups: &[f64],
    walls: &[f64],
    traced: &TracedRun,
) {
    let completed = || {
        records
            .iter()
            .filter(|r| r.outcome == RequestOutcome::Completed)
    };
    let tokens: u64 = completed().map(|r| r.tokens.len() as u64).sum::<u64>()
        + requests.iter().map(|r| r.prompt.len() as u64).sum::<u64>();
    let good_tokens: u64 = completed()
        .filter(|r| r.met_deadline())
        .map(|r| r.tokens.len() as u64)
        .sum();
    let ttft: Vec<u64> = completed().filter_map(|r| r.ttft_ps()).collect();
    let itl: Vec<u64> = completed().flat_map(|r| r.itl_ps.iter().copied()).collect();
    let setup = setup_median(setups);
    let tok_per_s = Spread::of(
        &walls
            .iter()
            .map(|wall| tokens as f64 / wall)
            .collect::<Vec<_>>(),
    );
    let ns = |p: Pct| p.value as f64 / 1000.0;
    let ttft_p50 = p50(&ttft);
    let ttft_tail = tail(&ttft);
    let itl_p50 = p50(&itl);
    let itl_tail = tail(&itl);
    let modeled_s = report.elapsed_ps.max(1) as f64 * 1e-12;
    let energy_nj = traced.total.energy.total().value() * 1e6;
    let rss = peak_rss_mb().unwrap_or(f64::NAN);
    out.end_to_end = vec![
        metric("setup_s", "s", Clock::Host, setup.median),
        metric("host_tok_per_s", "tok/s", Clock::Host, tok_per_s.median),
        metric("peak_rss_mb", "MiB", Clock::Host, rss),
        metric("model_ttft_p50_ns", "ns", Clock::Model, ns(ttft_p50)),
        metric("model_ttft_tail_ns", "ns", Clock::Model, ns(ttft_tail)),
        metric("model_itl_p50_ns", "ns", Clock::Model, ns(itl_p50)),
        metric("model_itl_tail_ns", "ns", Clock::Model, ns(itl_tail)),
        metric(
            "model_goodput_tok_per_s",
            "tok/s",
            Clock::Model,
            good_tokens as f64 / modeled_s,
        ),
        metric(
            "model_energy_per_token_nj",
            "nJ",
            Clock::Model,
            energy_nj / tokens.max(1) as f64,
        ),
    ];
    out.spreads.push(("setup_s".into(), setup));
    out.spreads.push(("host_tok_per_s".into(), tok_per_s));
    out.percentiles = vec![
        ("model_ttft_p50_ns", ttft_p50),
        ("model_ttft_tail_ns", ttft_tail),
        ("model_itl_p50_ns", itl_p50),
        ("model_itl_tail_ns", itl_tail),
    ];
}

fn per_layer(out: &mut Report, walls: &[f64], traced: &[TracedRun]) {
    let first = &traced[0];
    // Host numbers: the median over traced passes, with their spread.
    let mut host = |name: &str, unit: &'static str, f: &dyn Fn(&TracedRun) -> f64| {
        let spread = Spread::of(&traced.iter().map(f).collect::<Vec<_>>());
        out.spreads.push((name.to_string(), spread));
        metric(name, unit, Clock::Host, spread.median)
    };
    let tick_s =
        |t: &TracedRun| seconds(t.ticks.iter().map(|s| s.tick_ns).sum::<u64>() + t.idle_tick_ns);
    let gemm_s = |t: &TracedRun| seconds(t.kernel.nanos);
    // Self time: each tick's span minus its child GEMM spans.
    let tick_self_s =
        |t: &TracedRun| tick_s(t) - seconds(t.ticks.iter().map(|s| s.kernel_ns).sum());
    let merge_s = |t: &TracedRun| seconds(t.ticks.iter().map(|s| s.merge_ns).sum());
    let replay_s = |t: &TracedRun| seconds(t.ticks.iter().map(|s| s.replay_ns).sum());
    let wall_s = |t: &TracedRun| seconds(t.wall_ns);
    let untraced_wall = Spread::of(walls).median;

    let mut layers = vec![
        host("kernel.gemm_s", "s", &gemm_s),
        host("kernel.gmacs_per_s", "GMAC/s", &|t| {
            t.kernel.macs as f64 / t.kernel.nanos.max(1) as f64
        }),
        host("kernel.wall_share", "ratio", &|t| gemm_s(t) / wall_s(t)),
        host("sched.tick_s", "s", &tick_s),
        host("sched.tick_self_s", "s", &tick_self_s),
        host("sched.self_wall_share", "ratio", &|t| {
            tick_self_s(t) / wall_s(t)
        }),
        host("trace.merge_s", "s", &merge_s),
        host("arch.replay_s", "s", &replay_s),
        host("arch.merge_replay_wall_share", "ratio", &|t| {
            (merge_s(t) + replay_s(t)) / wall_s(t)
        }),
        host("frontend.overhead_s", "s", &|t| {
            wall_s(t) - tick_s(t) - merge_s(t) - replay_s(t)
        }),
        host("frontend.traced_wall_s", "s", &wall_s),
    ];
    let traced_wall = out.spreads.last().expect("traced wall recorded").1.median;
    layers.push(metric(
        "frontend.tracing_overhead_s",
        "s",
        Clock::Host,
        traced_wall - untraced_wall,
    ));

    let ticks = first.ticks.len().max(1) as f64;
    let tokens: usize = first.ticks.iter().map(|s| s.tokens).sum();
    let ops: usize = first.ticks.iter().map(|s| s.ops).sum();
    let merged_ops: usize = first.ticks.iter().map(|s| s.merged_ops).sum();
    let backend_macs = first.kernel.macs as f64;
    let modeled_ms: f64 = first.role_ms.iter().sum();
    let waits: Vec<u64> = first
        .records
        .iter()
        .filter_map(|r| r.admitted_ps.map(|a| a - r.arrival_ps))
        .collect();
    layers.extend([
        metric(
            "kernel.gemm_calls",
            "count",
            Clock::Count,
            first.kernel.calls as f64,
        ),
        metric(
            "kernel.integer_mac_frac",
            "ratio",
            Clock::Count,
            1.0 - backend_macs / first.recorded_macs.max(1) as f64,
        ),
        metric(
            "sched.ticks",
            "count",
            Clock::Count,
            first.ticks.len() as f64,
        ),
        metric(
            "sched.tokens_per_tick",
            "tok",
            Clock::Count,
            tokens as f64 / ticks,
        ),
        metric(
            "sched.preemptions",
            "count",
            Clock::Count,
            first.sched.preemptions as f64,
        ),
        metric(
            "kv.prefix_token_frac",
            "ratio",
            Clock::Count,
            first.sched.prefix_shared_tokens as f64 / first.prompt_tokens.max(1) as f64,
        ),
        metric(
            "kv.peak_resident",
            "count",
            Clock::Count,
            first.sched.peak_resident_sessions as f64,
        ),
        metric(
            "kv.peak_blocks",
            "count",
            Clock::Count,
            first.peak_blocks as f64,
        ),
        metric(
            "trace.ops_per_tick",
            "ops",
            Clock::Count,
            ops as f64 / ticks,
        ),
        metric(
            "trace.merged_ops_per_tick",
            "ops",
            Clock::Count,
            merged_ops as f64 / ticks,
        ),
        metric(
            "arch.cache_hit_rate",
            "ratio",
            Clock::Count,
            first.cache.hit_rate(),
        ),
        metric(
            "arch.cache_entries",
            "count",
            Clock::Count,
            first.cache.entries as f64,
        ),
        metric(
            "arch.distinct_gemm_shapes",
            "count",
            Clock::Count,
            first.distinct_gemm_shapes as f64,
        ),
        metric(
            "arch.bw_stall_frac",
            "ratio",
            Clock::Model,
            first.total.stalls.bandwidth.value()
                / first.total.latency.value().max(f64::MIN_POSITIVE),
        ),
        metric(
            "arch.utilization",
            "ratio",
            Clock::Model,
            first.total.utilization,
        ),
    ]);
    for (role, ms) in ROLES.iter().zip(first.role_ms) {
        layers.push(metric(
            format!("arch.cycle_share.{role}"),
            "ratio",
            Clock::Model,
            ms / modeled_ms.max(f64::MIN_POSITIVE),
        ));
    }
    let wait_p50 = p50(&waits);
    let wait_p99 = lt_runtime::loadgen::percentile(&waits, 99.0);
    layers.push(metric(
        "frontend.queue_wait_p50_ns",
        "ns",
        Clock::Model,
        wait_p50.value as f64 / 1000.0,
    ));
    layers.push(metric(
        "frontend.queue_wait_p99_ns",
        "ns",
        Clock::Model,
        wait_p99 as f64 / 1000.0,
    ));
    out.per_layer = layers;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_batches_draw_every_position_within_a_pass_equally() {
        // Position r of every pass costs r: each batch mean is the mean
        // over positions, whatever the pass.
        let samples: Vec<f64> = (0..SETUP_BATCHES * SETUP_BATCHES)
            .map(|t| (t % SETUP_BATCHES) as f64)
            .collect();
        let s = setup_median(&samples);
        let mean = (SETUP_BATCHES - 1) as f64 / 2.0;
        assert_eq!(
            (s.min, s.median, s.p90, s.n),
            (mean, mean, mean, SETUP_BATCHES)
        );
    }
}
