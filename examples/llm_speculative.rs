//! Speculative decoding, end to end: a draft LM proposes `k` tokens,
//! the target verifies all of them in ONE batched pass, mismatches are
//! rolled back out of the KV cache — and the output stream stays
//! bit-identical to plain greedy decode, even on the noisy photonic
//! backend.
//!
//! The example serves the same request mix twice through
//! [`DecodeServer`] (plain vs. speculative at `LT_SPEC_K`, default 4)
//! and asserts every reply matches token for token and cost for cost.
//! Then it prints the `repro spec` sweep: replayed target-model cycles
//! per generated token for k∈{0,2,4,8} at batch 1 and 8, with the
//! draft's own cycles itemized separately.
//!
//! Both servers run on `LT_THREADS` threads: with two or more, every
//! scheduler tick steps its sessions concurrently, and the replies must
//! still match.
//!
//! ```sh
//! cargo run --release --example llm_speculative
//! LT_SPEC_K=8 cargo run --release --example llm_speculative   # deeper speculation
//! LT_THREADS=2 LT_SPEC_K=2 cargo run --release --example llm_speculative
//! ```

use lightening_transformer::core::GaussianSampler;
use lightening_transformer::dptc::DptcBackend;
use lightening_transformer::nn::decode::{DecodeReply, DecoderConfig, DecoderLm};
use lightening_transformer::nn::serve::decode::{
    DecodeRequest, DecodeServeConfig, DecodeServer, DecodeServerStats, SpecConfig,
};
use lightening_transformer::nn::serve::sched::KvServeConfig;
use lightening_transformer::runtime::ThreadsConfig;

/// Varied prompts and generation lengths over the tiny vocabulary.
fn make_request(i: usize) -> DecodeRequest {
    DecodeRequest {
        prompt: (0..3 + i % 4).map(|t| (i * 5 + t * 3) % 16).collect(),
        max_new_tokens: 6 + i % 5,
    }
}

/// Serves the fixed mix once and returns the replies plus the server's
/// counters.
fn serve(
    spec: SpecConfig,
    threads: ThreadsConfig,
    total: usize,
) -> (Vec<DecodeReply>, DecodeServerStats) {
    let mut rng = GaussianSampler::new(42);
    let mut model = DecoderLm::new(DecoderConfig::tiny(), &mut rng);
    // The synthetic stand-in for a trained LM's layer-wise refinement:
    // without it a random-init target disagrees with its own first half
    // at chance level (see `DecoderLm::taper_deep_blocks`).
    model.taper_deep_blocks(0.25);
    let server = DecodeServer::new(
        model,
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
            spec,
            threads,
            ..DecodeServeConfig::default()
        },
    );
    let pending: Vec<_> = (0..total).map(|i| server.submit(make_request(i))).collect();
    let replies: Vec<DecodeReply> = pending.into_iter().map(|p| p.wait()).collect();
    let stats = server.stats();
    server.shutdown();
    (replies, stats)
}

fn main() {
    let env = SpecConfig::from_env();
    let k = if env.is_enabled() { env.k } else { 4 };
    let threads = ThreadsConfig::from_env();
    let total = 8;

    println!(
        "== Speculative decoding (LT_SPEC_K={k}, LT_THREADS={}, noisy DPTC backend) ==\n",
        threads.threads()
    );
    let (base, plain) = serve(SpecConfig::default(), threads, total);
    assert_eq!(
        (plain.spec_proposed, plain.spec_accepted, plain.draft_cycles),
        (0, 0, 0),
        "plain serving must not speculate"
    );
    let (spec, stats) = serve(SpecConfig::with_k(k), threads, total);
    let (proposed, accepted, draft_cycles) =
        (stats.spec_proposed, stats.spec_accepted, stats.draft_cycles);

    assert!(proposed > 0, "speculation must propose");
    assert!(accepted <= proposed);
    assert!(draft_cycles > 0, "draft overhead must be accounted");
    for (i, (a, b)) in base.iter().zip(&spec).enumerate() {
        assert_eq!(
            a, b,
            "request {i}: speculation must not change tokens or costs"
        );
    }
    let tokens: usize = base.iter().map(|r| r.tokens.len()).sum();
    println!(
        "bit-identical: all {total} replies ({tokens} tokens, per-token costs, KV footprints)\n\
         match plain greedy decode at k={k}; acceptance {}/{} = {:.3}, draft overhead \
         {draft_cycles} replayed cycles\n",
        accepted,
        proposed,
        accepted as f64 / proposed as f64,
    );

    print!("{}", lt_bench::experiments::spec::spec());
}
