//! Benches for the DPTC core: one-shot MM and tiled GEMM at the
//! simulation fidelities, plus the ragged-vs-flat storage comparison.
//!
//! # Before/after note (flat `Matrix` migration)
//!
//! The seed stored operands as ragged `Vec<Vec<f64>>`: every row was its
//! own heap allocation, and the one-shot path allocated two ragged
//! encode buffers plus a ragged output *per call* — three `Vec<Vec<_>>`
//! (39 heap allocations at 12x12) on the hot path of every tile of
//! every GEMM. The `lt-core` migration stores everything flat and
//! contiguous: 3 allocations, linear indexing, in-order cache walks.
//! The `ragged(pre-PR)` benchmarks below re-implement the seed's ragged
//! kernel verbatim so the win stays measurable in the bench history.
//!
//! Measured on the reference container (release, 12x12x12 one-shot):
//! the *deterministic* path (`one_shot_det/*`, noiseless model — what
//! the quantized digital reference and every zero-sigma tile runs) went
//! from ~17.5 us/iter (pre-PR ragged kernel, which re-evaluated the
//! Eq. 9 `sin` for all 1728 MACs) to ~3.7 us/iter on the flat kernel
//! with the multiplier hoisted into the `WavelengthCoefficients` cache —
//! a ~4.8x speedup. The *stochastic* path (`one_shot_noisy/*`) is bound
//! by its 1728 Gaussian draws per call (~56 us/iter), so storage is
//! parity there — the allocations it no longer performs are hidden
//! behind the RNG, and the win surfaces exactly where compute, not
//! noise, dominates.
//!
//! # Before/after note (column-lane analytic hot path)
//!
//! The analytic path was rewritten without moving an output bit or a
//! noise draw (`tests/dptc_golden.rs` pins both): the ziggurat's
//! rectangle test is inlined and its state stays in registers across
//! the encode loops, each tile encode is a gather with a lane-wise
//! abs-max, a branch-free quantize and a draw pass in the old order,
//! and `B` tiles stay row-major so the Eq. 9 MAC runs across four
//! output-column lanes. The `decode_gemm_*` rows are the per-token
//! calls of the `photonic-decode` serving workload.
//!
//! Without phase drift every output of a wavelength shares one Eq. 9
//! multiplier, so the MAC has a second instance for that case which
//! computes it once per wavelength; the noiseless rows
//! (`one_shot_det`, `decode_gemm_noiseless_*`,
//! `tiled_gemm_quantized_8bit`) run there.
//!
//! Medians of three alternating runs of this bench on a 2-core x86-64
//! host (AVX2/AVX-512F present but unused: baseline target), us per
//! call, before -> after:
//!
//! | row                                      | before | after |
//! |------------------------------------------|-------:|------:|
//! | `decode_gemm_noisy/[1,32]x[32,96]`        |   45.3 |  30.6 |
//! | `decode_gemm_noiseless/[1,32]x[32,96]`    |   21.7 |   9.2 |
//! | `decode_gemm_noisy/[1,32]x[32,128]`       |   61.4 |  38.4 |
//! | `decode_gemm_noisy/[1,128]x[128,32]`      |   58.3 |  41.5 |
//! | `decode_gemm_noisy/[8,32]x[32,96]`        |  109.3 |  85.3 |
//! | `tiled_gemm_noisy_4bit/64x64x64`          |  864.0 | 700.9 |
//! | `tiled_gemm_quantized_8bit/197x64x197`    | 2383.6 | 1804.0 |
//! | `one_shot_noisy/flat(lt-core)`            |    7.6 |   5.7 |
//! | `one_shot_det/flat(lt-core)`              |    2.2 |   1.7 |
//!
//! With a single MAC instance for both cases, the two MAC-bound
//! noiseless rows were slower than before the rewrite (`one_shot_det`
//! 2.4 us, `tiled_gemm_quantized_8bit` 2887 us in runs alternating with
//! the ones above); the noisy rows do not change between the two.

use lt_bench::timing::bench;
use lt_core::{ComputeBackend, GaussianSampler, Matrix64, RunCtx};
use lt_dptc::ddot::WavelengthCoefficients;
use lt_dptc::{DdotCircuit, Dptc, DptcBackend, DptcConfig, Fidelity, NoiseModel};

fn rand_matrix(rows: usize, cols: usize, seed: u64) -> Matrix64 {
    let mut rng = GaussianSampler::new(seed);
    Matrix64::from_fn(rows, cols, |_, _| rng.uniform_in(-1.0, 1.0))
}

/// Copies a flat matrix into the seed's ragged representation (the
/// conversion lives here now that the compatibility shims are gone).
fn ragged(m: &Matrix64) -> Vec<Vec<f64>> {
    (0..m.rows()).map(|i| m.row(i).to_vec()).collect()
}

/// The seed's ragged noisy one-shot kernel, reproduced for the
/// before/after comparison (per-row allocations and all).
fn ragged_matmul_noisy(
    core: &Dptc,
    a: &[Vec<f64>],
    b: &[Vec<f64>],
    noise: &NoiseModel,
    seed: u64,
) -> Vec<Vec<f64>> {
    let cfg = core.config();
    let (nh, nv, nlambda) = (cfg.nh, cfg.nv, cfg.nlambda);
    let mut rng = GaussianSampler::new(seed);
    let coeffs = WavelengthCoefficients::compute(core.ddot().grid(), &noise.dispersion);
    let perturb = |v: f64, rng: &mut GaussianSampler| {
        if noise.sigma_magnitude > 0.0 {
            v + rng.normal(0.0, noise.sigma_magnitude * v.abs())
        } else {
            v
        }
    };
    let a_hat: Vec<Vec<f64>> = a
        .iter()
        .map(|row| row.iter().map(|&v| perturb(v, &mut rng)).collect())
        .collect();
    let b_hat: Vec<Vec<f64>> = b
        .iter()
        .map(|row| row.iter().map(|&v| perturb(v, &mut rng)).collect())
        .collect();
    let mut out = vec![vec![0.0; nv]; nh];
    for i in 0..nh {
        for j in 0..nv {
            let mut io = 0.0;
            for l in 0..nlambda {
                let dphi_d = if noise.sigma_phase_rad > 0.0 {
                    rng.normal(0.0, noise.sigma_phase_rad)
                } else {
                    0.0
                };
                let phi = dphi_d - std::f64::consts::FRAC_PI_2 + coeffs.dphi[l];
                let (t, k) = (coeffs.t[l], coeffs.k[l]);
                let (x, y) = (a_hat[i][l], b_hat[l][j]);
                io += 2.0 * t * k * (-phi.sin()) * x * y + (t * t - k * k) * (x * x - y * y) / 2.0;
            }
            out[i][j] = if noise.sigma_systematic > 0.0 {
                io * (1.0 + rng.normal(0.0, noise.sigma_systematic))
            } else {
                io
            };
        }
    }
    out
}

fn main() {
    let core = Dptc::new(DptcConfig::lt_paper());
    let a = rand_matrix(12, 12, 1);
    let b = rand_matrix(12, 12, 2);
    let nm = NoiseModel::paper_default();

    println!("dptc benches (12x12x12 core)\n");

    let ideal = bench("one_shot/ideal", || {
        core.matmul(a.view(), b.view(), &Fidelity::Ideal)
    });
    println!("{}", ideal.row());

    // Before/after: the seed's ragged kernel vs the flat Matrix kernel.
    let ragged_a = ragged(&a);
    let ragged_b = ragged(&b);
    let quiet = NoiseModel::noiseless();
    let ragged_det = bench("one_shot_det/ragged(pre-PR)", || {
        ragged_matmul_noisy(&core, &ragged_a, &ragged_b, &quiet, 7)
    });
    println!("{}", ragged_det.row());
    let flat_det = bench("one_shot_det/flat(lt-core)", || {
        core.matmul(
            a.view(),
            b.view(),
            &Fidelity::AnalyticNoisy {
                noise: quiet,
                seed: 7,
            },
        )
    });
    println!("{}", flat_det.row());
    println!(
        "  -> flat storage speedup (deterministic path): {:.2}x\n",
        flat_det.speedup_vs(&ragged_det)
    );

    let ragged = bench("one_shot_noisy/ragged(pre-PR)", || {
        ragged_matmul_noisy(&core, &ragged_a, &ragged_b, &nm, 7)
    });
    println!("{}", ragged.row());
    let flat = bench("one_shot_noisy/flat(lt-core)", || {
        core.matmul(a.view(), b.view(), &Fidelity::paper_noisy(7))
    });
    println!("{}", flat.row());
    println!(
        "  -> flat storage speedup (RNG-bound noisy path): {:.2}x\n",
        flat.speedup_vs(&ragged)
    );

    let circuit = DdotCircuit::paper(12);
    let x: Vec<f64> = (0..12).map(|i| (i as f64 / 11.0) - 0.5).collect();
    let y: Vec<f64> = (0..12).map(|i| 0.5 - (i as f64 / 11.0)).collect();
    let r = bench("ddot_circuit/length12", || {
        circuit.dot_noisy(&x, &y, &nm, 3)
    });
    println!("{}", r.row());

    for &(m, k, n) in &[(24usize, 24usize, 24usize), (64, 64, 64), (197, 64, 197)] {
        let a = rand_matrix(m, k, 3);
        let b = rand_matrix(k, n, 4);
        let r = bench(&format!("tiled_gemm_noisy_4bit/{m}x{k}x{n}"), || {
            core.gemm(a.view(), b.view(), 4, &Fidelity::paper_noisy(11))
        });
        println!("{}", r.row());
    }
    // The noiseless quantized reference the accuracy experiments run:
    // MAC-bound, no draws.
    let a = rand_matrix(197, 64, 3);
    let b = rand_matrix(64, 197, 4);
    let r = bench("tiled_gemm_quantized_8bit/197x64x197", || {
        core.gemm_quantized(a.view(), b.view(), 8)
    });
    println!("{}", r.row());

    // Decode-shaped backend calls at 8 bits: the per-token
    // matrix-vector products of a dim-32 model (QKV/FFN-up, FFN-up at
    // ffn 128, FFN-down) and an 8-row prefill chunk. Every call draws a
    // fresh seed from the context, as serving does.
    println!();
    for &(m, k, n) in &[
        (1usize, 32usize, 96usize),
        (1, 32, 128),
        (1, 128, 32),
        (8, 32, 96),
    ] {
        let a = rand_matrix(m, k, 5);
        let b = rand_matrix(k, n, 6);
        for (label, backend) in [
            ("noisy", DptcBackend::paper(8, 13)),
            ("noiseless", DptcBackend::quantized(8)),
        ] {
            let mut ctx = RunCtx::new(1);
            let r = bench(
                &format!("decode_gemm_{label}_8bit/[{m},{k}]x[{k},{n}]"),
                || backend.gemm(a.view(), b.view(), &mut ctx),
            );
            println!("{}", r.row());
        }
    }
}
