//! A batching, multi-threaded inference server over any
//! [`ComputeBackend`] — the software analogue of the accelerator's
//! batched execution (Section IV: weights are loaded once per layer and
//! reused across the whole batch).
//!
//! Concurrent clients [`Server::submit`] mixed vision (DeiT stand-in)
//! and text (BERT stand-in) requests; a [`lt_runtime::BatchQueue`]
//! coalesces them into FIFO batches that worker threads drain. Each
//! worker holds its own clone of the model weights (loaded once, reused
//! for every request it serves) and runs whole transformer forward
//! passes with every GEMM routed through the configured backend — wrap
//! the backend in [`lt_runtime::ParallelBackend`] to also parallelize
//! inside each GEMM.
//!
//! What coalescing amortizes today: queue synchronization (one lock
//! round per batch, not per request) and weight residency (a worker
//! streams a whole batch through its already-loaded weights). Requests
//! within a batch still execute as individual forward passes; fusing a
//! batch's per-layer products into single stacked GEMMs (the backends
//! already expose [`ComputeBackend::gemm_batch`] for it) requires
//! batched model forwards and is the natural next step on top of this
//! queue.
//!
//! # Per-request hardware cost
//!
//! Every forward pass records its op trace ([`lt_core::TraceRecorder`])
//! while executing, and the worker replays the coalesced trace through
//! an [`lt_arch::Simulator`] built from [`ServeConfig::arch`]. The
//! [`Reply`] therefore carries, next to the logits, a [`RunReport`]
//! (photonic cycles, itemized energy, latency, EDP — and, since the
//! tile-schedule refactor, the achieved MAC utilization plus a
//! [`lt_arch::StallBreakdown`] saying whether the request was
//! compute-bound, bandwidth-bound, or pipeline-fill-bound): the serving
//! layer answers "what would this request cost on the accelerator, and
//! why" for free, per ticket.
//!
//! # Determinism
//!
//! A request's logits depend only on the model weights, the input, and
//! the server's root seed mixed with the request *ticket*
//! ([`lt_core::backend::split_seed`]) — never on worker count, batch
//! boundaries, or completion order. Serving the same stream twice (or
//! with a different `workers`/`max_batch` configuration) returns
//! bit-identical logits, enforced by `tests/runtime_determinism.rs`.
//! The attached cost is invariant the same way: the recorded trace is a
//! function of model geometry and input shape alone, and the simulator
//! is deterministic.

pub mod decode;
pub mod lifecycle;
pub mod sched;

use crate::engine::BackendEngine;
use crate::layers::ForwardCtx;
use crate::model::{Classifier, TextClassifier, VisionTransformer};
use crate::quant::QuantConfig;
use crate::tensor::Tensor;
use lt_arch::{ArchConfig, RunReport, Simulator};
use lt_core::backend::split_seed;
use lt_core::{ComputeBackend, GaussianSampler, Trace, TraceRecorder};
use lt_runtime::{BatchQueue, ParallelBackend, ThreadPool, ThreadsConfig};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// One inference request: an image (patch matrix) for the vision model
/// or a token sequence for the text model.
#[derive(Debug, Clone)]
pub enum Request {
    /// Patches for the [`VisionTransformer`], `[num_patches, patch_dim]`.
    Vision(Tensor),
    /// Token ids for the [`TextClassifier`] (exactly its `seq_len`).
    Text(Vec<usize>),
}

/// Serving configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each holding its own copy of the weights.
    pub workers: usize,
    /// Maximum requests a worker drains from the queue at once.
    pub max_batch: usize,
    /// Root seed; request noise streams are `split_seed(seed, ticket)`.
    pub seed: u64,
    /// Operand fake-quantization applied to every forward pass.
    pub quant: QuantConfig,
    /// Accelerator model that costs every request's recorded trace
    /// (default: LT-B at 8 bits, the paper's high-accuracy point).
    pub arch: ArchConfig,
    /// Host parallelism: `threads > 1` wraps the backend in a
    /// [`lt_runtime::ParallelBackend`] over one pool of that many
    /// threads shared by all workers, and every routed GEMM big enough
    /// to split fans out as row-block jobs on it. (Decode serving uses
    /// the same knob to also step a tick's resident sessions
    /// concurrently — see [`crate::serve::decode::DecodeServeConfig`];
    /// a classification request is one forward pass, with no sessions
    /// to step.) Replies are bit-identical at every thread count.
    /// Default is sequential; read `LT_THREADS` with
    /// [`ThreadsConfig::from_env`].
    pub threads: ThreadsConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 8,
            seed: 0,
            quant: QuantConfig::fp32(),
            arch: ArchConfig::lt_base(8),
            threads: ThreadsConfig::default(),
        }
    }
}

/// A served response: the logits plus the hardware cost of the request's
/// recorded op trace replayed through the accelerator model.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// `[1, classes]` logits.
    pub logits: Tensor,
    /// Cycles, itemized energy, and latency of the recorded trace on
    /// [`ServeConfig::arch`] (EDP via [`RunReport::edp`]).
    pub cost: RunReport,
    /// The coalesced op trace the forward pass actually executed — the
    /// evidence behind `cost`, and the input a scheduler or DSE loop
    /// can re-cost under a different [`ArchConfig`].
    pub trace: Trace,
}

/// A handle to one in-flight request of either threaded server: a
/// classifier [`Reply`] ([`PendingReply`]) or a decode stream
/// ([`decode::PendingDecode`]).
#[derive(Debug)]
pub struct Pending<R> {
    ticket: u64,
    rx: Receiver<R>,
}

impl<R> Pending<R> {
    /// The queue ticket (submission order, also the noise-stream index).
    pub fn ticket(&self) -> u64 {
        self.ticket
    }

    /// Blocks until the reply arrives.
    ///
    /// # Panics
    ///
    /// Panics if the request was malformed (e.g. a wrong-length token
    /// sequence or an empty prompt) and its worker failed it — other
    /// requests and the worker are unaffected — or if the worker died.
    pub fn wait(self) -> R {
        self.rx
            .recv()
            .expect("request failed or server dropped before replying")
    }
}

/// A handle to one in-flight classifier request.
pub type PendingReply = Pending<Reply>;

/// One queued request and the channel its reply goes back on.
#[derive(Debug)]
struct Job<Q, R> {
    request: Q,
    reply: Sender<R>,
}

/// The worker/queue shell both threaded servers run on: named worker
/// threads over one [`BatchQueue`], reply routing, the `served` count,
/// and the close-drain-join shutdown (also on drop). A server supplies
/// only the worker body, which pulls requests through its [`Intake`]
/// and answers them there.
#[derive(Debug)]
struct WorkerShell<Q, R> {
    queue: Arc<BatchQueue<Job<Q, R>>>,
    served: Arc<AtomicU64>,
    workers: Vec<JoinHandle<()>>,
}

impl<Q, R> WorkerShell<Q, R> {
    /// Starts `workers` (at least one) threads named `{name}-{w}` over
    /// a queue of batches of at most `max_batch`. Worker `w` runs the
    /// body `body_for(w)` builds on the caller's thread.
    fn spawn<F>(
        name: &str,
        workers: usize,
        max_batch: usize,
        mut body_for: impl FnMut(usize) -> F,
    ) -> Self
    where
        Q: Send + 'static,
        R: Send + 'static,
        F: FnOnce(&mut Intake<Q, R>) + Send + 'static,
    {
        let queue = Arc::new(BatchQueue::new(max_batch.max(1)));
        let served = Arc::new(AtomicU64::new(0));
        let workers = (0..workers.max(1))
            .map(|w| {
                let body = body_for(w);
                let mut intake = Intake {
                    queue: Arc::clone(&queue),
                    served: Arc::clone(&served),
                    replies: HashMap::new(),
                };
                std::thread::Builder::new()
                    .name(format!("{name}-{w}"))
                    .spawn(move || body(&mut intake))
                    .expect("failed to spawn serve worker")
            })
            .collect();
        WorkerShell {
            queue,
            served,
            workers,
        }
    }

    /// Enqueues a request; returns immediately with its reply handle.
    fn submit(&self, request: Q) -> Pending<R> {
        let (reply, rx) = channel();
        let ticket = self.queue.submit(Job { request, reply });
        Pending { ticket, rx }
    }

    /// Requests answered so far (failed ones are drained, not counted).
    fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Drains outstanding requests, stops the workers, and returns the
    /// number of requests answered.
    fn shutdown(mut self) -> u64 {
        self.stop();
        self.served()
    }

    /// Closes the queue (the workers still drain it) and joins them.
    fn stop(&mut self) {
        self.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl<Q, R> Drop for WorkerShell<Q, R> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A worker's end of the [`WorkerShell`]: takes requests off the shared
/// queue and routes each answer back to the client that submitted it.
#[derive(Debug)]
struct Intake<Q, R> {
    queue: Arc<BatchQueue<Job<Q, R>>>,
    served: Arc<AtomicU64>,
    replies: HashMap<u64, Sender<R>>,
}

impl<Q, R> Intake<Q, R> {
    /// Blocks for the next batch; `None` once the queue is closed and
    /// drained.
    fn next_batch(&mut self) -> Option<Vec<(u64, Q)>> {
        let batch = self.queue.next_batch()?;
        Some(self.accept(batch))
    }

    /// Takes up to `limit` waiting requests without blocking.
    fn try_take(&mut self, limit: usize) -> Vec<(u64, Q)> {
        match self.queue.try_take(limit) {
            Some(batch) => self.accept(batch),
            None => Vec::new(),
        }
    }

    fn accept(&mut self, batch: Vec<(u64, Job<Q, R>)>) -> Vec<(u64, Q)> {
        batch
            .into_iter()
            .map(|(ticket, job)| {
                self.replies.insert(ticket, job.reply);
                (ticket, job.request)
            })
            .collect()
    }

    /// Answers `ticket` and counts it served. A client that dropped its
    /// handle just doesn't read the reply.
    fn reply(&mut self, ticket: u64, reply: R) {
        self.served.fetch_add(1, Ordering::Relaxed);
        if let Some(tx) = self.replies.remove(&ticket) {
            let _ = tx.send(reply);
        }
    }

    /// Fails `ticket`: its sender is dropped, so the client's
    /// [`Pending::wait`] panics with a clear message.
    fn fail(&mut self, ticket: u64) {
        self.replies.remove(&ticket);
    }
}

/// The batching inference server. See the [module docs](self).
///
/// ```
/// use lt_core::NativeBackend;
/// use lt_nn::model::{ModelConfig, TextClassifier, VisionTransformer};
/// use lt_nn::serve::{Request, ServeConfig, Server};
/// use lt_nn::Tensor;
/// use lt_core::GaussianSampler;
///
/// let mut rng = GaussianSampler::new(1);
/// let vision = VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng);
/// let text = TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng);
/// let server = Server::new(vision, text, NativeBackend, ServeConfig::default());
///
/// let image = Tensor::from_fn(16, 16, |i, j| ((i * 16 + j) as f32 * 0.01).sin());
/// let pending = server.submit(Request::Vision(image));
/// let reply = pending.wait();
/// assert_eq!(reply.logits.shape(), (1, 4));
/// // Every reply carries the hardware cost of its recorded op trace.
/// assert!(reply.cost.energy.total().value() > 0.0);
/// assert!(reply.cost.edp() > 0.0);
/// ```
#[derive(Debug)]
pub struct Server {
    shell: WorkerShell<Request, Reply>,
    batches: Arc<AtomicU64>,
}

impl Server {
    /// Starts `config.workers` worker threads, each with its own clone
    /// of the two models (weights loaded once per worker, amortized
    /// across every request that worker serves). The backend type is
    /// consumed by the workers, so the handle itself is not generic.
    ///
    /// With [`ServeConfig::threads`] parallel, the backend is wrapped
    /// in a [`ParallelBackend`] over one pool shared by every worker,
    /// so each GEMM inside a forward pass fans out as row-block jobs —
    /// with bit-identical replies, per the seed-partition contract.
    pub fn new<B: ComputeBackend + Clone + 'static>(
        vision: VisionTransformer,
        text: TextClassifier,
        backend: B,
        config: ServeConfig,
    ) -> Self {
        if config.threads.is_parallel() {
            let pool = Arc::new(ThreadPool::new(config.threads.threads()));
            return Server::spawn(
                vision,
                text,
                ParallelBackend::with_pool(backend, pool),
                config,
            );
        }
        Server::spawn(vision, text, backend, config)
    }

    /// The monomorphic worker bring-up both construction paths share.
    fn spawn<B: ComputeBackend + Clone + 'static>(
        vision: VisionTransformer,
        text: TextClassifier,
        backend: B,
        config: ServeConfig,
    ) -> Self {
        let batches = Arc::new(AtomicU64::new(0));
        let shell = WorkerShell::spawn("lt-serve-worker", config.workers, config.max_batch, |_| {
            let batches = Arc::clone(&batches);
            let mut vision = vision.clone();
            let mut text = text.clone();
            let backend = backend.clone();
            let config = config.clone();
            move |intake: &mut Intake<Request, Reply>| {
                // One simulator per worker, built once and reused to
                // cost every request it serves.
                let sim = Simulator::new(config.arch.clone());
                while let Some(batch) = intake.next_batch() {
                    batches.fetch_add(1, Ordering::Relaxed);
                    for (ticket, request) in batch {
                        // Contain per-request panics (wrong sequence
                        // length, out-of-range token id, ...): the
                        // offending request fails while the rest of
                        // the batch and the worker survive. Model
                        // forward caches are overwritten on every
                        // pass, so the clones stay valid after an
                        // unwind.
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                serve_one(
                                    &mut vision,
                                    &mut text,
                                    &backend,
                                    &config,
                                    &sim,
                                    ticket,
                                    &request,
                                )
                            }));
                        match outcome {
                            Ok(reply) => intake.reply(ticket, reply),
                            Err(_) => intake.fail(ticket),
                        }
                    }
                }
            }
        });
        Server { shell, batches }
    }

    /// Enqueues a request; returns immediately with a reply handle.
    pub fn submit(&self, request: Request) -> PendingReply {
        self.shell.submit(request)
    }

    /// Requests served *successfully* so far (a request whose forward
    /// pass panicked — malformed input — is drained but not counted).
    pub fn served(&self) -> u64 {
        self.shell.served()
    }

    /// Batches drained so far; `served() / batches()` is the realized
    /// coalescing factor.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Drains outstanding requests, stops the workers, and returns the
    /// total number of requests served successfully.
    pub fn shutdown(self) -> u64 {
        self.shell.shutdown()
    }
}

/// Runs one request's whole forward pass with its ticket-derived noise
/// streams, records the executed op trace, and costs it on the
/// accelerator model. Free-standing (rather than a closure) so the
/// determinism contract is easy to audit: everything stochastic flows
/// from `split_seed(config.seed, ticket)`, and the cost is a pure
/// function of the recorded trace.
fn serve_one<B: ComputeBackend + Clone>(
    vision: &mut VisionTransformer,
    text: &mut TextClassifier,
    backend: &B,
    config: &ServeConfig,
    sim: &Simulator,
    ticket: u64,
    request: &Request,
) -> Reply {
    let mut engine = BackendEngine::new(backend.clone(), split_seed(config.seed, ticket));
    // The training-noise RNG is unused at inference but part of the ctx;
    // seed it off the same stream for full reproducibility.
    let mut rng = GaussianSampler::new(split_seed(!config.seed, ticket));
    let recorder = TraceRecorder::new();
    let mut ctx =
        ForwardCtx::inference(&mut engine, config.quant, &mut rng).with_recorder(recorder.clone());
    let logits = match request {
        Request::Vision(patches) => vision.forward(patches, &mut ctx),
        Request::Text(tokens) => text.forward(&tokens[..], &mut ctx),
    };
    // Coalesce before costing: merged instances fill hardware tiles the
    // way the paper's batched mapping assumes (per-head products etc.).
    let trace = recorder.take().coalesce();
    let cost = sim.run_trace(&trace);
    Reply {
        logits,
        cost,
        trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use lt_core::NativeBackend;
    use lt_dptc::DptcBackend;

    fn models() -> (VisionTransformer, TextClassifier) {
        let mut rng = GaussianSampler::new(7);
        (
            VisionTransformer::new(ModelConfig::tiny_vision(), 16, 16, &mut rng),
            TextClassifier::new(ModelConfig::tiny_text(), 16, 12, &mut rng),
        )
    }

    fn mixed_requests(n: usize) -> Vec<Request> {
        let mut rng = GaussianSampler::new(11);
        (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Request::Text((0..12).map(|t| (i + t) % 16).collect())
                } else {
                    Request::Vision(Tensor::randn(16, 16, 1.0, &mut rng))
                }
            })
            .collect()
    }

    fn serve_all<B: ComputeBackend + Clone + 'static>(
        backend: B,
        cfg: ServeConfig,
        requests: &[Request],
    ) -> Vec<Reply> {
        let (vision, text) = models();
        let server = Server::new(vision, text, backend, cfg);
        let pending: Vec<PendingReply> =
            requests.iter().map(|r| server.submit(r.clone())).collect();
        let replies: Vec<Reply> = pending.into_iter().map(PendingReply::wait).collect();
        assert_eq!(server.shutdown(), requests.len() as u64);
        replies
    }

    #[test]
    fn serves_mixed_requests_with_correct_shapes_and_costs() {
        let requests = mixed_requests(9);
        let replies = serve_all(NativeBackend, ServeConfig::default(), &requests);
        for (req, r) in requests.iter().zip(&replies) {
            match req {
                Request::Vision(_) => assert_eq!(r.logits.shape(), (1, 4)),
                Request::Text(_) => assert_eq!(r.logits.shape(), (1, 2)),
            }
            assert!(r.cost.cycles > 0, "photonic cycles attached");
            assert!(r.cost.energy.total().value() > 0.0, "energy attached");
            assert!(r.cost.latency.value() > 0.0, "latency attached");
            assert!(r.cost.edp() > 0.0, "EDP attached");
            assert!(
                r.cost.utilization > 0.0 && r.cost.utilization <= 1.0,
                "utilization attached"
            );
            assert!(
                (r.cost.stalls.total().value() - r.cost.latency.value()).abs()
                    <= 1e-9 * r.cost.latency.value(),
                "the stall breakdown accounts for the whole window"
            );
            assert!(!r.trace.is_empty(), "trace attached");
            assert!(
                r.cost.energy.digital.value() > 0.0,
                "non-GEMM work is costed too"
            );
        }
        // Same model + same input shape => same cost; different model
        // geometry => different cost.
        let vision_costs: Vec<_> = requests
            .iter()
            .zip(&replies)
            .filter(|(req, _)| matches!(req, Request::Vision(_)))
            .map(|(_, r)| r.cost)
            .collect();
        assert!(vision_costs.windows(2).all(|w| w[0] == w[1]));
        let text_cost = requests
            .iter()
            .zip(&replies)
            .find(|(req, _)| matches!(req, Request::Text(_)))
            .map(|(_, r)| r.cost)
            .unwrap();
        assert_ne!(text_cost, vision_costs[0], "geometry shows in the cost");
    }

    #[test]
    fn results_and_costs_do_not_depend_on_worker_count_or_batch_size() {
        let requests = mixed_requests(8);
        let backend = DptcBackend::paper(8, 3);
        let base = serve_all(
            backend.clone(),
            ServeConfig {
                workers: 1,
                max_batch: 1,
                ..ServeConfig::default()
            },
            &requests,
        );
        for (workers, max_batch) in [(2, 4), (4, 8)] {
            let got = serve_all(
                backend.clone(),
                ServeConfig {
                    workers,
                    max_batch,
                    ..ServeConfig::default()
                },
                &requests,
            );
            for (a, b) in base.iter().zip(&got) {
                // Reply equality covers logits, cost, and trace at once.
                assert_eq!(a, b, "workers={workers} max_batch={max_batch}");
            }
        }
    }

    #[test]
    fn a_malformed_request_does_not_poison_the_batch_or_the_worker() {
        let (vision, text) = models();
        let server = Server::new(
            vision,
            text,
            NativeBackend,
            ServeConfig {
                workers: 1,
                max_batch: 4,
                ..ServeConfig::default()
            },
        );
        let good_before = server.submit(Request::Text(vec![0; 12]));
        let bad = server.submit(Request::Text(vec![0; 11])); // wrong seq_len
        let good_after = server.submit(Request::Text(vec![1; 12]));
        assert_eq!(good_before.wait().logits.shape(), (1, 2));
        assert_eq!(good_after.wait().logits.shape(), (1, 2), "worker survived");
        let failed = std::panic::catch_unwind(move || bad.wait());
        assert!(failed.is_err(), "malformed request reports failure");
        assert_eq!(server.shutdown(), 2, "only the two good requests count");
    }

    #[test]
    fn tickets_are_submission_ordered() {
        let (vision, text) = models();
        let server = Server::new(vision, text, NativeBackend, ServeConfig::default());
        let a = server.submit(Request::Text(vec![0; 12]));
        let b = server.submit(Request::Text(vec![1; 12]));
        assert!(a.ticket() < b.ticket());
        a.wait();
        b.wait();
    }

    #[test]
    fn shutdown_answers_every_queued_request_and_dropped_handles_do_not_stall() {
        // The workers wait at a gate until the queue is closed, so all
        // ten requests are still queued when `shutdown` starts: the
        // close must drain them, not drop them. Odd tickets' clients
        // hang up first; their replies go nowhere, and the workers move
        // on.
        let (open, gate) = channel::<()>();
        let gate = Arc::new(std::sync::Mutex::new(gate));
        let shell = WorkerShell::spawn("lt-shell-test", 2, 3, |_| {
            let gate = Arc::clone(&gate);
            move |intake: &mut Intake<u64, u64>| {
                let _ = gate.lock().expect("gate").recv();
                while let Some(batch) = intake.next_batch() {
                    for (ticket, x) in batch {
                        intake.reply(ticket, 2 * x);
                    }
                }
            }
        });
        let (kept, hung_up): (Vec<_>, Vec<_>) = (0..10u64)
            .map(|x| shell.submit(x))
            .partition(|p| p.ticket() % 2 == 0);
        drop(hung_up);
        let queue = Arc::clone(&shell.queue);
        let closer = std::thread::spawn(move || shell.shutdown());
        while !queue.is_closed() {
            std::thread::yield_now();
        }
        assert_eq!(queue.len(), 10, "nothing was taken before shutdown");
        drop(open);
        assert_eq!(closer.join().expect("shutdown"), 10, "all ten served");
        for p in kept {
            let ticket = p.ticket();
            assert_eq!(p.wait(), 2 * ticket, "tickets follow submission order");
        }
    }
}
