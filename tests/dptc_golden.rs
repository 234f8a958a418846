//! Golden digests of the DPTC noise-emulation hot path.
//!
//! The analytic DPTC model (Eq. 9 transfer with encoding-magnitude,
//! phase-drift and systematic noise, paper §III-C) is seed-deterministic:
//! a seed fixes every Gaussian draw and therefore every output bit. These
//! tests hash the exact output bits of the sampler and of every analytic
//! entry point (the tiled backend GEMM, the one-shot `Dptc::matmul` and
//! the fault-injection path) and compare them with digests recorded
//! from the implementation they pin. A rewrite of the hot path that
//! reorders a single draw, fuses a multiply-add, or changes how a NaN,
//! infinite, zero or subnormal tile is encoded changes a digest.
//!
//! The digests were recorded on x86-64 Linux. They depend on the
//! platform's `sin`/`cos`/`exp`/`ln` and on the sign the FPU gives a
//! freshly produced NaN, so another platform may legitimately differ.

use lightening_transformer::core::{ComputeBackend, GaussianSampler, Matrix64, RunCtx};
use lightening_transformer::dptc::{
    ChannelFault, Dptc, DptcBackend, DptcConfig, FaultSet, Fidelity, NoiseModel,
};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn matrix(&mut self, m: &Matrix64) {
        self.word(m.rows() as u64);
        self.word(m.cols() as u64);
        for &v in m.data() {
            self.word(v.to_bits());
        }
    }
}

fn rand_matrix(rows: usize, cols: usize, scale: f64, seed: u64) -> Matrix64 {
    let mut rng = GaussianSampler::new(seed);
    Matrix64::from_fn(rows, cols, |_, _| rng.uniform_in(-scale, scale))
}

/// The four noise models the hot path branches on.
fn models() -> [(&'static str, NoiseModel); 4] {
    let paper = NoiseModel::paper_default();
    [
        ("paper", paper),
        ("noiseless", NoiseModel::noiseless()),
        ("phase-off", paper.with_phase_degrees(0.0)),
        ("systematic-off", paper.with_systematic(0.0)),
    ]
}

#[test]
fn sampler_stream_digest() {
    // Long enough to take the ziggurat's wedge (~1% of draws) and tail
    // (~0.06%) branches many times; the tail count proves it.
    let mut g = GaussianSampler::new(0x5eed);
    let mut d = Digest::new();
    let mut tail = 0;
    for _ in 0..100_000 {
        let x = g.sample();
        tail += usize::from(x.abs() > 3.442_619_855_899);
        d.word(x.to_bits());
    }
    for _ in 0..1000 {
        d.word(g.normal(0.25, 0.03).to_bits());
        d.word(g.next_u64());
    }
    assert!(tail > 10, "tail branch taken {tail} times");
    assert_eq!(
        d.0, 0x16cd_bab7_934b_c48f,
        "sampler stream digest {:#018x}",
        d.0
    );
}

#[test]
fn backend_analytic_gemm_digest() {
    // Decode (m = 1) rows, a prefill chunk, a multi-block product (the
    // backend's row block is 4 strips = 48 rows) and shapes that divide
    // none of the core's dimensions.
    let shapes = [
        (1, 32, 96),
        (1, 32, 128),
        (1, 128, 32),
        (8, 32, 96),
        (13, 25, 17),
        (50, 40, 30),
    ];
    let mut d = Digest::new();
    for (si, &(m, k, n)) in shapes.iter().enumerate() {
        let a = rand_matrix(m, k, 1.5, 100 + si as u64);
        let b = rand_matrix(k, n, 0.7, 200 + si as u64);
        for bits in [4, 8] {
            for (name, noise) in models() {
                let backend = DptcBackend::new(
                    DptcConfig::lt_paper(),
                    Fidelity::AnalyticNoisy { noise, seed: 7 },
                    bits,
                );
                let mut ctx = RunCtx::new(si as u64);
                let first = backend.gemm(a.view(), b.view(), &mut ctx);
                let mut second = Matrix64::zeros(3, 3);
                backend.gemm_into(a.view(), b.view(), &mut ctx, &mut second);
                let mut replay = RunCtx::new(si as u64);
                let _ = replay.next_seed();
                let again = backend.gemm(a.view(), b.view(), &mut replay);
                assert_eq!(second, again, "gemm_into == gemm ({name}, {bits} bit)");
                d.matrix(&first);
                d.matrix(&second);
            }
        }
    }
    assert_eq!(
        d.0, 0x83a5_ad26_c623_e9b7,
        "backend analytic digest {:#018x}",
        d.0
    );
}

#[test]
fn non_paper_core_digest() {
    // Nh = 4, Nv = 5, N_lambda = 3: odd wavelength count (the MAC's
    // two-accumulator tail) and Nh != Nv.
    let cfg = DptcConfig::new(4, 5, 3);
    let mut d = Digest::new();
    for &(m, k, n) in &[(1, 7, 11), (9, 6, 10), (4, 3, 5)] {
        let a = rand_matrix(m, k, 1.0, 300 + m as u64);
        let b = rand_matrix(k, n, 2.0, 400 + n as u64);
        for bits in [4, 8] {
            for (_, noise) in models() {
                let backend =
                    DptcBackend::new(cfg, Fidelity::AnalyticNoisy { noise, seed: 3 }, bits);
                d.matrix(&backend.gemm(a.view(), b.view(), &mut RunCtx::new(11)));
            }
        }
    }
    assert_eq!(
        d.0, 0x42f3_64dc_3b7e_dff1,
        "non-paper core digest {:#018x}",
        d.0
    );
}

#[test]
fn special_value_tiles_digest() {
    // Special values placed so that each touches its own tiles: an
    // all-zero tile (skipped, draws nothing), NaN entries (ignored by
    // the tile's abs-max, encoded as signed zeros), a subnormal tile
    // (1 / beta = inf, so 0 * inf = NaN while encoding) and signed
    // zeros all leave their outputs finite; an infinite entry makes its
    // tile's scale infinite, which poisons only its own column strip
    // (B) or row strip (A). The finite outputs around them keep every
    // draw visible.
    let (m, k, n) = (30, 72, 40);
    let mut a = rand_matrix(m, k, 1.0, 500);
    let mut b = rand_matrix(k, n, 1.0, 501);
    for i in 0..12 {
        for l in 0..12 {
            a.set(i, l, 0.0);
        }
    }
    a.set(13, 14, f64::NAN);
    b.set(61, 13, f64::NAN);
    b.set(27, 38, f64::INFINITY);
    a.set(26, 30, f64::NEG_INFINITY);
    for l in 36..48 {
        for j in 12..24 {
            b.set(l, j, if (l + j) % 3 == 0 { 0.0 } else { 1e-310 });
        }
    }
    for l in 48..60 {
        a.set(0, l, -0.0);
        b.set(l, 1, -0.0);
    }
    let mut d = Digest::new();
    for bits in [4, 8] {
        for (_, noise) in models() {
            let backend = DptcBackend::new(
                DptcConfig::lt_paper(),
                Fidelity::AnalyticNoisy { noise, seed: 5 },
                bits,
            );
            let out = backend.gemm(a.view(), b.view(), &mut RunCtx::new(2));
            let finite = out.data().iter().filter(|v| v.is_finite()).count();
            assert_eq!(finite, 24 * 36, "only the poisoned strips are non-finite");
            d.matrix(&out);
        }
    }
    assert_eq!(
        d.0, 0x91ea_08c2_24c4_f3a1,
        "special-value tile digest {:#018x}",
        d.0
    );
}

#[test]
fn one_shot_and_fault_paths_digest() {
    let mut d = Digest::new();
    for cfg in [DptcConfig::lt_paper(), DptcConfig::new(4, 5, 3)] {
        let core = Dptc::new(cfg);
        let a = rand_matrix(cfg.nh, cfg.nlambda, 1.0, 600);
        let b = rand_matrix(cfg.nlambda, cfg.nv, 1.0, 601);
        for (_, noise) in models() {
            let fidelity = Fidelity::AnalyticNoisy { noise, seed: 9 };
            d.matrix(&core.matmul(a.view(), b.view(), &fidelity));
            d.matrix(&core.gemm(a.view(), b.view(), 6, &fidelity));
            let faults = FaultSet::none()
                .with(ChannelFault::DeadWavelength { channel: 1 })
                .with(ChannelFault::StuckModulator {
                    row: 2,
                    channel: 0,
                    value: 0.5,
                });
            d.matrix(&core.matmul_noisy_faulty(a.view(), b.view(), &noise, &faults, 13));
        }
    }
    assert_eq!(
        d.0, 0x26cf_f1bb_8e02_224b,
        "one-shot and fault digest {:#018x}",
        d.0
    );
}
