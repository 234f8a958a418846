//! Throughput of the parallel runtime: sequential vs. `ParallelBackend`
//! at 1/2/4/8 threads, plus batched serving at 1 vs. 4 workers.
//!
//! ```sh
//! cargo bench -p lt-bench --bench runtime
//! ```
//!
//! The row-block partition gives each thread `ceil(m / (threads * g)) * g`
//! rows of independent work (g = the backend's preferred block rows), so
//! on an `N`-core host the large-GEMM wall clock approaches `1/N` of
//! sequential until memory bandwidth saturates; per-block dispatch
//! overhead is one job box + one `a`-strip copy, amortized over
//! `O(g * k * n)` MACs.
//!
//! Recorded run (`cargo bench -p lt-bench --bench runtime`, this
//! repository's reference build container — which exposes exactly ONE
//! hardware thread, so it cannot exhibit parallel speedup by
//! construction): see the RECORDED RESULTS block at the bottom of this
//! file for the captured table. On one CPU every thread count runs at
//! parity with sequential (the pool can only interleave), and dispatch
//! overhead stays in the noise — which, combined with the bit-identity
//! tests in `tests/runtime_determinism.rs`, is the strongest claim a
//! single-core host can verify. The speedup itself comes from the work
//! partition being embarrassingly parallel: the row blocks of a GEMM
//! share no mutable state and no noise stream, so `T` threads execute
//! `ceil(blocks/T)` blocks each with zero synchronization beyond one
//! channel send per block; a 2x-or-better wall-clock gain at 4 threads
//! on a 4-core-or-better host follows from that structure and must be
//! re-measured there (`cargo bench -p lt-bench --bench runtime` prints
//! the same table on any machine).

use lt_bench::timing::{bench_for, BenchReport};
use lt_core::{ComputeBackend, GaussianSampler, Matrix64, NativeBackend, RunCtx};
use lt_dptc::DptcBackend;
use lt_nn::decode::{DecodeReply, DecoderConfig, DecoderLm};
use lt_nn::model::ModelConfig;
use lt_nn::serve::decode::{DecodeRequest, DecodeServeConfig, DecodeServer, SpecConfig};
use lt_nn::serve::sched::KvServeConfig;
use lt_nn::serve::{Request, ServeConfig, Server};
use lt_nn::{Tensor, TextClassifier, VisionTransformer};
use lt_runtime::{ParallelBackend, ThreadsConfig};
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];
const SPEC_KS: [usize; 4] = [0, 2, 4, 8];
const WINDOW: Duration = Duration::from_millis(300);

fn rand_pair(m: usize, k: usize, n: usize, seed: u64) -> (Matrix64, Matrix64) {
    let mut rng = GaussianSampler::new(seed);
    (
        Matrix64::randn(m, k, 1.0, &mut rng),
        Matrix64::randn(k, n, 1.0, &mut rng),
    )
}

fn gemm_sweep<B>(label: &str, backend: B, m: usize, k: usize, n: usize)
where
    B: ComputeBackend + Clone + 'static,
{
    let (a, b) = rand_pair(m, k, n, 1);
    let seq = bench_for(&format!("{label} {m}x{k}x{n} sequential"), WINDOW, || {
        backend.gemm(a.view(), b.view(), &mut RunCtx::new(7))
    });
    println!("{}", seq.row());
    for threads in THREADS {
        let par = ParallelBackend::new(backend.clone(), threads);
        let report = bench_for(
            &format!("{label} {m}x{k}x{n} {threads} threads"),
            WINDOW,
            || par.gemm(a.view(), b.view(), &mut RunCtx::new(7)),
        );
        println!(
            "{}  [{:.2}x vs sequential]",
            report.row(),
            report.speedup_vs(&seq)
        );
    }
    println!();
}

fn serving_sweep() {
    let mut rng = GaussianSampler::new(42);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..48)
        .map(|i| {
            if i % 3 == 2 {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            } else {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            }
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for workers in [1usize, 4] {
        let report = bench_for(
            &format!("serve 48 mixed DPTC requests, {workers} worker(s)"),
            WINDOW,
            || {
                let server = Server::new(
                    vision.clone(),
                    text.clone(),
                    DptcBackend::paper(8, 7),
                    ServeConfig {
                        workers,
                        max_batch: 8,
                        seed: 7,
                        ..ServeConfig::default()
                    },
                );
                let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
                let replies: Vec<lt_nn::Reply> = pending.into_iter().map(|p| p.wait()).collect();
                server.shutdown();
                replies
            },
        );
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs 1 worker]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
}

/// The wired serving path: the same request mix served through
/// `ServeConfig::threads` (the `LT_THREADS` knob) at every thread
/// count. On a 1-core host this prints parity (the table's purpose
/// there is bounding the pool's dispatch overhead); on a multi-core
/// host it prints the row-block scaling. Replies are bit-identical
/// either way (`tests/runtime_determinism.rs`).
fn serving_threads_sweep() {
    let mut rng = GaussianSampler::new(42);
    let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
    let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
    let requests: Vec<Request> = (0..12)
        .map(|i| {
            if i % 3 == 2 {
                Request::Text((0..12).map(|t| (i + t) % 16).collect())
            } else {
                Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
            }
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for threads in THREADS {
        let report = bench_for(
            &format!("serve 12 DPTC requests, LT_THREADS={threads}"),
            WINDOW,
            || {
                let server = Server::new(
                    vision.clone(),
                    text.clone(),
                    DptcBackend::paper(8, 7),
                    ServeConfig {
                        workers: 2,
                        max_batch: 4,
                        seed: 7,
                        threads: ThreadsConfig::new(threads),
                        ..ServeConfig::default()
                    },
                );
                let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
                let replies: Vec<lt_nn::Reply> = pending.into_iter().map(|p| p.wait()).collect();
                server.shutdown();
                replies
            },
        );
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs 1 thread]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
    println!();
}

/// Speculative decoding on the HOST clock: the same 8-session decode
/// mix served at every `spec_k`. The modeled win lives on the
/// accelerator (`repro spec` shows replayed target cycles/token
/// dropping ~3x at k=4, batch 1); on the host, every draft token and
/// every rolled-back verify row is REAL GEMM work the CPU still
/// executes, so wall clock is expected to get *worse* as k grows.
/// This sweep records that draft overhead honestly instead of letting
/// the modeled numbers imply a host-side speedup that isn't there.
fn spec_k_sweep() {
    let mut rng = GaussianSampler::new(42);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    // Without the taper a random-init target disagrees with its own
    // bottom half at chance level and the sweep measures pure waste.
    model.taper_deep_blocks(0.25);
    let requests: Vec<DecodeRequest> = (0..8)
        .map(|i| DecodeRequest {
            prompt: (0..3 + i % 4).map(|t| (i * 5 + t * 3) % 16).collect(),
            max_new_tokens: 6 + i % 5,
        })
        .collect();
    let mut baseline: Option<BenchReport> = None;
    for k in SPEC_KS {
        let report = bench_for(&format!("decode 8 sessions, spec_k={k}"), WINDOW, || {
            let server = DecodeServer::new(
                model.clone(),
                DptcBackend::paper(8, 3),
                DecodeServeConfig {
                    workers: 1,
                    max_active: 4,
                    seed: 7,
                    kv: KvServeConfig {
                        block_tokens: 4,
                        pool_blocks: 64,
                        ..KvServeConfig::default()
                    },
                    spec: SpecConfig::with_k(k),
                    ..DecodeServeConfig::default()
                },
            );
            let pending: Vec<_> = requests.iter().map(|r| server.submit(r.clone())).collect();
            let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
            server.shutdown();
            replies
        });
        match &baseline {
            None => {
                println!("{}", report.row());
                baseline = Some(report);
            }
            Some(base) => {
                println!(
                    "{}  [{:.2}x vs spec_k=0 on the host]",
                    report.row(),
                    report.speedup_vs(base)
                );
            }
        }
    }
    println!();
}

fn main() {
    println!("== parallel runtime throughput ==");
    println!(
        "host parallelism: {} hardware thread(s)\n",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    gemm_sweep("native", NativeBackend, 384, 384, 384);
    gemm_sweep("dptc-analytic", DptcBackend::paper(8, 5), 192, 192, 192);
    serving_threads_sweep();
    spec_k_sweep();
    serving_sweep();
}

// RECORDED RESULTS — reference build container, 2026-08-07.
// `available_parallelism() == 1` on this host, so parity (not speedup)
// is the expected and observed outcome for the thread sweeps; the
// numbers bound the runtime's dispatch overhead even when every block
// is forced through the pool with nothing to gain.
//
//   host parallelism: 1 hardware thread(s)
//   native 384x384x384 sequential                    14873 us/iter
//   native 384x384x384 1 threads                     12769 us/iter  [1.16x]
//   native 384x384x384 2 threads                     13453 us/iter  [1.11x]
//   native 384x384x384 4 threads                     17548 us/iter  [0.85x]
//   native 384x384x384 8 threads                     15820 us/iter  [0.94x]
//   dptc-analytic 192x192x192 sequential             20264 us/iter
//   dptc-analytic 192x192x192 1 threads              19420 us/iter  [1.04x]
//   dptc-analytic 192x192x192 2 threads              20618 us/iter  [0.98x]
//   dptc-analytic 192x192x192 4 threads              24479 us/iter  [0.83x]
//   dptc-analytic 192x192x192 8 threads              20668 us/iter  [0.98x]
//   serve 12 DPTC requests, LT_THREADS=1             16466 us/iter
//   serve 12 DPTC requests, LT_THREADS=2             16428 us/iter  [1.00x]
//   serve 12 DPTC requests, LT_THREADS=4             17057 us/iter  [0.97x]
//   serve 12 DPTC requests, LT_THREADS=8             16408 us/iter  [1.00x]
//   decode 8 sessions, spec_k=0                      17663 us/iter
//   decode 8 sessions, spec_k=2                      41430 us/iter  [0.43x]
//   decode 8 sessions, spec_k=4                      46549 us/iter  [0.38x]
//   decode 8 sessions, spec_k=8                      49725 us/iter  [0.36x]
//   serve 48 mixed DPTC requests, 1 worker(s)        63020 us/iter
//   serve 48 mixed DPTC requests, 4 worker(s)        70859 us/iter  [0.89x]
//
// The spec_k rows are the honest host-side cost of speculation: every
// draft token, every verify row, and every rolled-back position is a
// real CPU GEMM here, so host wall clock DEGRADES 2.3-2.8x as k grows
// even while the modeled accelerator metric — replayed target cycles
// per generated token, the thing `repro spec` gates — improves ~3.2x
// at k=4, batch 1. The simulator charges the verify pass once at
// batched-GEMM cost and the draft at draft-trace cost; the host
// executes both serially at full precision, and that gap is the whole
// point of measuring on the accelerator model rather than the host.
//
// On a multi-core host the same binary prints the scaling table; the
// determinism suite guarantees the outputs are bit-identical either way.
