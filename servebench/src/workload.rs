//! The three seeded serving workloads.
//!
//! Each workload is a request trace (a pure function of the seed) plus
//! the serving configuration it runs under. Every workload uses LT-B at
//! 8 bits, Poisson arrivals at one fixed modeled rate near the
//! workload's modeled saturation point, an ample KV pool (no
//! preemption), one TTFT deadline, and a single `Standard` class.
//! `README.md` in this directory says why each one exists.

use lt_arch::ArchConfig;
use lt_core::backend::split_seed;
use lt_core::GaussianSampler;
use lt_nn::{DecodeServeConfig, DecoderConfig, DecoderLm, KvServeConfig, QuantConfig};
use lt_runtime::loadgen::{ArrivalModel, GenRequest, LengthMix, LoadgenConfig, SloMix};

/// Seed of the model weights and the session/noise streams. Fixed, so
/// only the request trace varies with `--seed`.
const MODEL_SEED: u64 = 0x5EED;

/// Tokens per KV block.
const BLOCK_TOKENS: usize = 16;

/// Which compute backend runs the GEMMs the frontend routes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// The exact CPU kernel (`NativeBackend`).
    Native,
    /// `ParallelBackend<DptcBackend::paper(8, seed)>` on a pool of
    /// `threads` workers: the paper's DPTC noise emulation.
    Photonic {
        /// Worker threads in the pool.
        threads: usize,
    },
}

/// Prefix-sharing groups: the first request of every `group` is a
/// long-output "template"; the rest of the group extend its prompt and
/// arrive while it is still resident, which is the only way the
/// whole-prompt `PrefixIndex` can hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Templates {
    /// Requests per group (template included).
    pub group: usize,
    /// Template prompt length range (inclusive).
    pub prompt: (usize, usize),
    /// Template output length range (inclusive).
    pub output: (usize, usize),
}

/// One workload: its model, serving knobs and request distribution.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Decoder geometry.
    pub model: DecoderConfig,
    /// Execution precision.
    pub quant: QuantConfig,
    /// GEMM backend.
    pub backend: BackendKind,
    /// Requests in the trace.
    pub requests: usize,
    /// Prompt length range (inclusive).
    pub prompt: (usize, usize),
    /// Output length range (inclusive).
    pub output: (usize, usize),
    /// Prefix-sharing templates, if any.
    pub templates: Option<Templates>,
    /// Poisson arrival rate, requests per modeled second.
    pub rate_per_s: f64,
    /// TTFT deadline of every request, modeled microseconds.
    pub ttft_deadline_us: u64,
    /// Chunked-prefill size (`0` = whole-prompt prefill).
    pub prefill_chunk_tokens: usize,
    /// Whether the scheduler shares cached prompt prefixes.
    pub prefix_sharing: bool,
    /// Continuous-batch width.
    pub max_active: usize,
}

/// Names of every workload, in `BENCHMARK.json` order.
pub const NAMES: [&str; 3] = ["decode-slo", "prefill-int8", "photonic-decode"];

impl Workload {
    /// The workload called `name`, at full size.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "decode-slo" => Some(Self::decode_slo()),
            "prefill-int8" => Some(Self::prefill_int8()),
            "photonic-decode" => Some(Self::photonic_decode()),
            _ => None,
        }
    }

    /// Decode-heavy: tiny fp32 model, short prompts, long outputs.
    fn decode_slo() -> Self {
        Workload {
            name: "decode-slo",
            model: DecoderConfig::tiny(),
            quant: QuantConfig::fp32(),
            backend: BackendKind::Native,
            requests: 900,
            prompt: (2, 8),
            output: (16, 40),
            templates: None,
            rate_per_s: 3.0e6,
            ttft_deadline_us: 1,
            prefill_chunk_tokens: 0,
            prefix_sharing: false,
            max_active: 8,
        }
    }

    /// Prefill-heavy: a wider int8 model, long prompts sharing
    /// template prefixes, short outputs.
    fn prefill_int8() -> Self {
        Workload {
            name: "prefill-int8",
            model: DecoderConfig {
                dim: 48,
                layers: 2,
                heads: 4,
                ffn_dim: 192,
                vocab: 128,
                max_seq: 192,
            },
            quant: QuantConfig::int8(),
            backend: BackendKind::Native,
            requests: 400,
            prompt: (32, 96),
            output: (2, 6),
            templates: Some(Templates {
                group: 4,
                prompt: (32, 64),
                output: (24, 32),
            }),
            rate_per_s: 1.2e6,
            ttft_deadline_us: 2,
            prefill_chunk_tokens: 0,
            prefix_sharing: true,
            max_active: 8,
        }
    }

    /// The DPTC noise emulation behind a two-thread pool, with chunked
    /// prefill.
    fn photonic_decode() -> Self {
        Workload {
            name: "photonic-decode",
            model: DecoderConfig {
                dim: 32,
                layers: 2,
                heads: 4,
                ffn_dim: 128,
                vocab: 64,
                max_seq: 96,
            },
            quant: QuantConfig::fp32(),
            backend: BackendKind::Photonic { threads: 2 },
            requests: 600,
            prompt: (8, 24),
            output: (8, 16),
            templates: None,
            rate_per_s: 5.4e6,
            ttft_deadline_us: 1,
            prefill_chunk_tokens: 8,
            prefix_sharing: false,
            max_active: 8,
        }
    }

    /// The accelerator model every workload is costed on.
    pub fn arch(&self) -> ArchConfig {
        ArchConfig::lt_base(8)
    }

    /// The model weights (fixed seed: they are not an input).
    pub fn build_model(&self) -> DecoderLm {
        DecoderLm::new(self.model, &mut GaussianSampler::new(MODEL_SEED))
    }

    /// The DPTC noise seed of the photonic backend.
    pub fn noise_seed(&self) -> u64 {
        MODEL_SEED
    }

    /// The serving configuration handed to `SloFrontend`.
    pub fn serve_config(&self) -> DecodeServeConfig {
        // One maximal session plus a copy-on-write spare per slot, so
        // the reserve phase never has to preempt.
        let per_session = self.model.max_seq.div_ceil(BLOCK_TOKENS) + 1;
        DecodeServeConfig {
            max_active: self.max_active,
            seed: MODEL_SEED,
            quant: self.quant,
            arch: self.arch(),
            kv: KvServeConfig {
                block_tokens: BLOCK_TOKENS,
                pool_blocks: self.max_active * per_session,
                prefix_sharing: self.prefix_sharing,
                ..KvServeConfig::default()
            },
            prefill_chunk_tokens: self.prefill_chunk_tokens,
            ..DecodeServeConfig::default()
        }
    }

    /// The request trace for `seed`: Poisson arrivals, uniform lengths,
    /// every request `Standard` with the workload's deadline; template
    /// groups rewritten in place.
    pub fn requests(&self, seed: u64) -> Vec<GenRequest> {
        let slo = SloMix {
            entries: vec![lt_runtime::loadgen::SloSpec {
                weight: 1.0,
                class: lt_runtime::SloClass::Standard,
                ttft_deadline_us: Some(self.ttft_deadline_us),
            }],
        };
        let mut requests = LoadgenConfig {
            seed,
            requests: self.requests,
            vocab: self.model.vocab,
            arrival: ArrivalModel::Poisson {
                rate_per_s: self.rate_per_s,
            },
            lengths: LengthMix::uniform(self.prompt, self.output),
            slo,
        }
        .generate();
        // Condition the Poisson stream on its span: scale the arrivals
        // so the last lands at `requests / rate`. The gaps stay those of
        // a Poisson process given its arrival count, and the offered
        // load no longer varies with the seed.
        let span_us = self.requests as f64 / self.rate_per_s * 1e6;
        let last_us = requests.last().map_or(0, |r| r.arrival_us).max(1) as f64;
        for r in &mut requests {
            r.arrival_us = (r.arrival_us as f64 * span_us / last_us).round() as u64;
        }
        if let Some(t) = self.templates {
            apply_templates(&mut requests, t, self.prompt.1, seed);
        }
        requests
    }
}

/// Rewrites each group's first request into a template (shorter prompt,
/// long output) and prefixes the rest of the group's prompts with it,
/// capped at `max_prompt` tokens.
fn apply_templates(requests: &mut [GenRequest], t: Templates, max_prompt: usize, seed: u64) {
    let mut template: Vec<usize> = Vec::new();
    for r in requests.iter_mut() {
        let draw = split_seed(seed, r.id as u64);
        if r.id % t.group == 0 {
            let len = pick(draw, t.prompt).min(r.prompt.len());
            r.prompt.truncate(len);
            r.max_new_tokens = pick(draw >> 32, t.output);
            template = r.prompt.clone();
        } else {
            let mut prompt = template.clone();
            prompt.extend_from_slice(&r.prompt);
            prompt.truncate(max_prompt);
            r.prompt = prompt;
        }
    }
}

/// A value in the inclusive range `range` drawn from `bits`.
fn pick(bits: u64, range: (usize, usize)) -> usize {
    range.0 + (bits % (range.1 - range.0 + 1) as u64) as usize
}
