//! DPTC: the dynamically-operated photonic tensor core (paper Section
//! III-B).
//!
//! A `Nv x Nh` crossbar of [`DDot`] units computes an
//! `[Nh, N_lambda] x [N_lambda, Nv]` matrix product in one cycle. Each
//! modulated WDM signal is broadcast to an entire row or column of units
//! ("intra-core optical broadcast"), so a one-shot MM costs only
//! `Nh*N_lambda + N_lambda*Nv` signal encodings instead of
//! `2*Nh*Nv*N_lambda` (Eq. 6).
//!
//! Simulation fidelity is selected by [`Fidelity`], not by calling a
//! different method: [`Dptc::matmul`] (one-shot, core-geometry operands)
//! and [`Dptc::gemm`] (tiled, arbitrary shapes) are the whole compute
//! API. The seed's legacy ragged-`Vec<Vec<f64>>`
//! shims were removed once nothing in-tree used them.

use crate::backend::Fidelity;
use crate::circuit::DdotCircuit;
use crate::ddot::{perturb_magnitude, phase_drift, systematic_gain, DDot, WavelengthCoefficients};
use crate::noise_model::NoiseModel;
use crate::quant::Quantizer;
use lt_core::{GaussianSampler, Matrix64, MatrixView};

/// Geometry of a DPTC crossbar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DptcConfig {
    /// Number of horizontal input waveguides (rows of the left operand).
    pub nh: usize,
    /// Number of vertical input waveguides (columns of the right operand).
    pub nv: usize,
    /// Number of WDM wavelengths (the shared inner dimension).
    pub nlambda: usize,
}

impl DptcConfig {
    /// Creates a config.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn new(nh: usize, nv: usize, nlambda: usize) -> Self {
        assert!(
            nh > 0 && nv > 0 && nlambda > 0,
            "DPTC dimensions must be positive (got {nh} x {nv} x {nlambda})"
        );
        DptcConfig { nh, nv, nlambda }
    }

    /// The paper's core geometry: `Nh = Nv = N_lambda = 12` (Table IV).
    pub fn lt_paper() -> Self {
        DptcConfig::new(12, 12, 12)
    }

    /// A square core of size `n` (used for the Fig. 9/10 scaling sweeps).
    pub fn square(n: usize) -> Self {
        DptcConfig::new(n, n, n)
    }

    /// Multiply-accumulate operations performed per cycle.
    pub fn macs_per_cycle(&self) -> usize {
        self.nh * self.nv * self.nlambda
    }

    /// Number of DDot units in the crossbar.
    pub fn num_ddots(&self) -> usize {
        self.nh * self.nv
    }

    /// Number of tiles `T = ceil(m/Nh) * ceil(d/N_lambda) * ceil(n/Nv)`
    /// needed for an `m x d` by `d x n` GEMM (the `T` of Eq. 11).
    pub fn tiles_for(&self, m: usize, d: usize, n: usize) -> usize {
        m.div_ceil(self.nh) * d.div_ceil(self.nlambda) * n.div_ceil(self.nv)
    }

    /// Hardware utilization of a tiled GEMM: useful MACs over issued MACs.
    pub fn utilization(&self, m: usize, d: usize, n: usize) -> f64 {
        let useful = (m * d * n) as f64;
        let issued = (self.tiles_for(m, d, n) * self.macs_per_cycle()) as f64;
        useful / issued
    }
}

/// The per-invocation operand encoding cost of Eq. 6, in units of
/// "scalar signals that need a DAC + MZM drive".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EncodingCost {
    /// Encodings with crossbar sharing: `Nh*N_lambda + N_lambda*Nv`.
    pub shared: usize,
    /// Encodings without sharing (separate dot-product engines):
    /// `2 * Nh * Nv * N_lambda`.
    pub unshared: usize,
}

impl EncodingCost {
    /// The encoding-cost saving factor `2 Nh Nv / (Nh + Nv)` enabled by the
    /// intra-core optical broadcast.
    pub fn saving_factor(&self) -> f64 {
        self.unshared as f64 / self.shared as f64
    }
}

/// A dynamically-operated photonic tensor core.
///
/// ```
/// use lt_dptc::{Dptc, DptcConfig};
/// let core = Dptc::new(DptcConfig::lt_paper());
/// // Eq. 6: a 12x12x12 core saves 12x encoding cost.
/// assert!((core.encoding_cost().saving_factor() - 12.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Dptc {
    config: DptcConfig,
    ddot: DDot,
}

impl Dptc {
    /// Creates a core with the given geometry over the paper's DWDM grid.
    pub fn new(config: DptcConfig) -> Self {
        Dptc {
            config,
            ddot: DDot::new(config.nlambda),
        }
    }

    /// The core geometry.
    pub fn config(&self) -> DptcConfig {
        self.config
    }

    /// The underlying DDot engine (shared wavelength grid).
    pub fn ddot(&self) -> &DDot {
        &self.ddot
    }

    /// The Eq. 6 encoding cost of one one-shot MM.
    pub fn encoding_cost(&self) -> EncodingCost {
        let DptcConfig { nh, nv, nlambda } = self.config;
        EncodingCost {
            shared: nh * nlambda + nlambda * nv,
            unshared: 2 * nh * nv * nlambda,
        }
    }

    /// One-shot matrix product at the selected [`Fidelity`]: `a` is
    /// `[Nh, N_lambda]`, `b` is `[N_lambda, Nv]`, the result is
    /// `[Nh, Nv]`.
    ///
    /// * [`Fidelity::Ideal`] — the functional contract: the exact product
    ///   through the workspace's shared kernel.
    /// * [`Fidelity::AnalyticNoisy`] — the paper's Eq. 9 transfer with
    ///   encoding magnitude/phase noise, per-wavelength dispersion, and
    ///   systematic output noise. Noise realizations follow the
    ///   hardware's sharing structure: each operand element is *encoded
    ///   once* and broadcast, so its magnitude drift is shared by every
    ///   DDot in its row/column; relative phase drift is drawn once per
    ///   DDot (all wavelengths interfere in the same coupler, so they
    ///   share its operand-path drift); systematic noise per detected
    ///   output.
    /// * [`Fidelity::Circuit`] — field propagation through the actual
    ///   device netlist ([`DdotCircuit`]); roughly an order of magnitude
    ///   slower, use for validation.
    ///
    /// # Panics
    ///
    /// Panics if the operand shapes do not match the core geometry.
    pub fn matmul(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        fidelity: &Fidelity,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        match *fidelity {
            Fidelity::Ideal => a.matmul(&b),
            Fidelity::AnalyticNoisy { noise, seed } => {
                let mut rng = GaussianSampler::new(seed);
                let coeffs = WavelengthCoefficients::compute(self.ddot.grid(), &noise.dispersion);
                self.mm_noisy_with(a, b, &noise, &coeffs, &mut rng)
            }
            Fidelity::Circuit { noise, seed } => {
                let mut rng = GaussianSampler::new(seed);
                let circuit = DdotCircuit::paper(self.config.nlambda);
                self.mm_circuit_with(a, b, &noise, &circuit, &mut rng)
            }
        }
    }

    /// Tiled GEMM of arbitrary dimensions at the selected [`Fidelity`],
    /// with per-tile operand normalization (`beta = max|.|`, paper
    /// Section III-C) and `bits`-bit operand quantization.
    ///
    /// Partial sums accumulate at full precision, mirroring the analog
    /// photocurrent summation and temporal accumulation of Section IV
    /// (A/D conversion happens after analog accumulation, so no
    /// intermediate quantization is modeled).
    ///
    /// [`Fidelity::Ideal`] bypasses tiling and quantization entirely and
    /// returns the exact product — the functional contract, bit-for-bit
    /// identical to [`lt_core::NativeBackend`]. Use
    /// [`Dptc::gemm_quantized`] for the quantized-but-noiseless digital
    /// reference.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn gemm(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
        fidelity: &Fidelity,
    ) -> Matrix64 {
        assert_eq!(
            a.cols(),
            b.rows(),
            "gemm shape mismatch: {:?} x {:?}",
            a.shape(),
            b.shape()
        );
        match *fidelity {
            Fidelity::Ideal => a.matmul(&b),
            Fidelity::AnalyticNoisy { noise, seed } => {
                let coeffs = WavelengthCoefficients::compute(self.ddot.grid(), &noise.dispersion);
                self.gemm_tiled_analytic(a, b, bits, &noise, seed, &coeffs)
            }
            Fidelity::Circuit { noise, seed } => {
                let quant = Quantizer::new(bits);
                let mut rng = GaussianSampler::new(seed);
                self.gemm_tiled_circuit(a, b, &quant, &noise, &mut rng)
            }
        }
    }

    /// Exact tiled GEMM (same tiling and quantization as the noisy path,
    /// no analog noise) — the "quantized digital" reference the accuracy
    /// experiments compare against.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn gemm_quantized(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
    ) -> Matrix64 {
        self.gemm(
            a,
            b,
            bits,
            &Fidelity::AnalyticNoisy {
                noise: NoiseModel::noiseless(),
                seed: 0,
            },
        )
    }

    /// The analytic Eq. 9 one-shot MM with precomputed coefficients and a
    /// caller-managed RNG — the entry point of [`Dptc::matmul`] and the
    /// fault-injection paths. The operands are not quantized. Draw
    /// order: the magnitude noise of `A` row by row, then of `B` column
    /// by column, then each output's phase and systematic realizations,
    /// output by output in row-major order. The MAC is the tiled GEMM's,
    /// [`noisy_mm_rows`].
    pub(crate) fn mm_noisy_with(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        noise: &NoiseModel,
        coeffs: &WavelengthCoefficients,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        let DptcConfig { nh, nv, nlambda } = self.config;

        // Encode each operand element once (shared noise realization).
        let sigma = noise.sigma_magnitude;
        let mut a_hat = a.to_matrix();
        perturb_tile(
            a_hat.data_mut(),
            nh,
            nlambda,
            nlambda,
            DrawOrder::Rows,
            sigma,
            rng,
        );
        let mut b_hat = b.to_matrix();
        perturb_tile(
            b_hat.data_mut(),
            nlambda,
            nv,
            nv,
            DrawOrder::Columns,
            sigma,
            rng,
        );

        let mut out = Matrix64::zeros(nh, nv);
        noisy_mm_rows(
            TileOperands {
                a: a_hat.data(),
                a_stride: nlambda,
                b: b_hat.data(),
                b_stride: nv,
                rows: nh,
                cols: nv,
                lambda: nlambda,
            },
            noise,
            coeffs,
            rng,
            out.data_mut(),
            nv,
            None,
        );
        out
    }

    /// Circuit-level one-shot MM: every DDot output is obtained by
    /// propagating fields through the device netlist.
    pub(crate) fn mm_circuit_with(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        noise: &NoiseModel,
        circuit: &DdotCircuit,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        self.check_shapes(a, b);
        let DptcConfig { nh, nv, nlambda } = self.config;

        // Shared encoding noise, exactly as in `mm_noisy_with`, clamped to
        // the MZM's encoding range.
        let mut a_hat = a.to_matrix();
        for v in a_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
        }
        let mut b_hat = b.to_matrix();
        for v in b_hat.data_mut() {
            *v = perturb_magnitude(*v, noise.sigma_magnitude, rng).clamp(-1.0, 1.0);
        }

        // The per-DDot netlist then only adds phase drift + systematic
        // noise (magnitudes were already perturbed above).
        let ddot_noise = NoiseModel {
            sigma_magnitude: 0.0,
            ..*noise
        };
        let mut out = Matrix64::zeros(nh, nv);
        let mut y = vec![0.0; nlambda];
        for i in 0..nh {
            let a_row = a_hat.row(i);
            let out_row = out.row_mut(i);
            for (j, out_ij) in out_row.iter_mut().enumerate().take(nv) {
                for (l, yl) in y.iter_mut().enumerate() {
                    *yl = b_hat.get(l, j);
                }
                *out_ij = circuit.dot_noisy_with(a_row, &y, &ddot_noise, rng);
            }
        }
        out
    }

    /// The analytic tiled GEMM: the `m x n` product under `noise`, with
    /// `bits`-bit DACs and one noise stream seeded by `seed`.
    ///
    /// This is the workspace's hottest loop (every noisy recorded forward
    /// pass and every photonic decode token lands here), organized
    /// around three invariants:
    ///
    /// * **One DAC drive per tile load.** Every `B` tile is gathered,
    ///   normalized (`beta = max|.|`), quantized and magnitude-perturbed
    ///   once per call; every `A` tile once per row strip, then reused
    ///   against every column strip. Encoding noise is drawn at that
    ///   point, so a tile reused against many partners carries one
    ///   encoding realization — the operand reuse the paper's Eq. 6
    ///   counts DAC conversions by. `beta == 0` marks an all-zero tile:
    ///   it is never encoded, draws nothing, and its products are
    ///   skipped.
    /// * **Row-major tiles.** An `A` tile is `Nh x N_lambda`, a `B` tile
    ///   `N_lambda x Nv`, both copied row by row from the operands, so
    ///   the MAC ([`noisy_mm_rows`]) reads one wavelength's `B` entries
    ///   for neighbouring output columns contiguously.
    /// * **A fixed draw order.** Per call: every `B` tile (column strips
    ///   outer, depth tiles inner; within a tile column by column, each
    ///   column's wavelengths in order), then per row strip its `A`
    ///   tiles (depth order; within a tile row by row) followed by its
    ///   tile products (column strips outer, depth inner; within a
    ///   product output by output in row-major order, phase then
    ///   systematic). Only the valid region of an edge tile draws: zero
    ///   padding is never encoded or detected, which is what lets an
    ///   `m = 1` decode row skip the other rows of its strip.
    ///
    /// Tile staging buffers live in thread-local scratch, so a decode
    /// token's GEMM calls allocate nothing here; every loop reads only
    /// the region it just wrote. The wavelength coefficients come in
    /// precomputed (the backend caches them per noise model).
    pub(crate) fn gemm_tiled_analytic(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        bits: u32,
        noise: &NoiseModel,
        seed: u64,
        coeffs: &WavelengthCoefficients,
    ) -> Matrix64 {
        let (m, d) = a.shape();
        let n = b.cols();
        let mut out = Matrix64::zeros(m, n);
        let levels = f64::from(Quantizer::new(bits).positive_levels());
        let mut rng = GaussianSampler::new(seed);
        let DptcConfig { nh, nv, nlambda } = self.config;
        if m == 0 || n == 0 || d == 0 {
            return out;
        }

        let nd = d.div_ceil(nlambda);
        let nn = n.div_ceil(nv);
        let tlen_a = nh * nlambda;
        let tlen_b = nlambda * nv;

        TILE_SCRATCH.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let (b_tiles, beta_b, a_tiles, beta_a) =
                scratch.prepare(nn * nd * tlen_b, nn * nd, nd * tlen_a, nd);

            for (nj, ni) in (0..n).step_by(nv).enumerate() {
                let cols_used = nv.min(n - ni);
                for (dj, di) in (0..d).step_by(nlambda).enumerate() {
                    let lambda_used = nlambda.min(d - di);
                    beta_b[nj * nd + dj] = encode_tile(
                        &mut b_tiles[(nj * nd + dj) * tlen_b..][..tlen_b],
                        lambda_used,
                        cols_used,
                        nv,
                        |tl| &b.row(di + tl)[ni..ni + cols_used],
                        DrawOrder::Columns,
                        levels,
                        noise,
                        &mut rng,
                    );
                }
            }

            for mi in (0..m).step_by(nh) {
                let rows_used = nh.min(m - mi);
                for (dj, di) in (0..d).step_by(nlambda).enumerate() {
                    let lambda_used = nlambda.min(d - di);
                    beta_a[dj] = encode_tile(
                        &mut a_tiles[dj * tlen_a..][..tlen_a],
                        rows_used,
                        lambda_used,
                        nlambda,
                        |ti| &a.row(mi + ti)[di..di + lambda_used],
                        DrawOrder::Rows,
                        levels,
                        noise,
                        &mut rng,
                    );
                }
                for (nj, ni) in (0..n).step_by(nv).enumerate() {
                    for dj in 0..nd {
                        let (ba, bb) = (beta_a[dj], beta_b[nj * nd + dj]);
                        if ba == 0.0 || bb == 0.0 {
                            continue; // all-zero tile contributes nothing
                        }
                        noisy_mm_rows(
                            TileOperands {
                                a: &a_tiles[dj * tlen_a..][..tlen_a],
                                a_stride: nlambda,
                                b: &b_tiles[(nj * nd + dj) * tlen_b..][..tlen_b],
                                b_stride: nv,
                                rows: rows_used,
                                cols: nv.min(n - ni),
                                lambda: nlambda.min(d - dj * nlambda),
                            },
                            noise,
                            coeffs,
                            &mut rng,
                            &mut out.data_mut()[mi * n + ni..],
                            n,
                            // Rescale and accumulate (analog-domain
                            // accumulation).
                            Some(ba * bb),
                        );
                    }
                }
            }
        });
        out
    }

    /// Circuit-fidelity tiled GEMM: gather-per-tile, field propagation
    /// per DDot. Kept structurally simple — this is the validation path.
    fn gemm_tiled_circuit(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        quant: &Quantizer,
        noise: &NoiseModel,
        rng: &mut GaussianSampler,
    ) -> Matrix64 {
        let (m, d) = a.shape();
        let n = b.cols();
        let circuit = DdotCircuit::paper(self.config.nlambda);
        let DptcConfig { nh, nv, nlambda } = self.config;
        let mut out = Matrix64::zeros(m, n);

        let mut tile_a = Matrix64::zeros(nh, nlambda);
        let mut tile_b = Matrix64::zeros(nlambda, nv);
        for mi in (0..m).step_by(nh) {
            for ni in (0..n).step_by(nv) {
                for di in (0..d).step_by(nlambda) {
                    // Gather tiles (zero-padded at the edges).
                    let mut beta_a = 0.0f64;
                    for ti in 0..nh {
                        let gi = mi + ti;
                        let row = tile_a.row_mut(ti);
                        for (tl, v) in row.iter_mut().enumerate() {
                            let gl = di + tl;
                            *v = if gi < m && gl < d { a.get(gi, gl) } else { 0.0 };
                            beta_a = beta_a.max(v.abs());
                        }
                    }
                    let mut beta_b = 0.0f64;
                    for tl in 0..nlambda {
                        let gl = di + tl;
                        let row = tile_b.row_mut(tl);
                        for (tj, v) in row.iter_mut().enumerate() {
                            let gj = ni + tj;
                            *v = if gl < d && gj < n { b.get(gl, gj) } else { 0.0 };
                            beta_b = beta_b.max(v.abs());
                        }
                    }
                    if beta_a == 0.0 || beta_b == 0.0 {
                        continue; // all-zero tile contributes nothing
                    }
                    // Normalize into [-1, 1] and quantize (the DAC).
                    for v in tile_a.data_mut() {
                        *v = quant.quantize_unit(*v / beta_a);
                    }
                    for v in tile_b.data_mut() {
                        *v = quant.quantize_unit(*v / beta_b);
                    }
                    let tile_out =
                        self.mm_circuit_with(tile_a.view(), tile_b.view(), noise, &circuit, rng);
                    // Rescale and accumulate (analog-domain accumulation).
                    let scale = beta_a * beta_b;
                    for ti in 0..nh {
                        let gi = mi + ti;
                        if gi >= m {
                            break;
                        }
                        let src = tile_out.row(ti);
                        let dst = out.row_mut(gi);
                        for tj in 0..nv {
                            let gj = ni + tj;
                            if gj >= n {
                                break;
                            }
                            dst[gj] += src[tj] * scale;
                        }
                    }
                }
            }
        }
        out
    }

    fn check_shapes(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>) {
        let DptcConfig { nh, nv, nlambda } = self.config;
        assert_eq!(a.rows(), nh, "left operand must have Nh = {nh} rows");
        assert_eq!(
            a.cols(),
            nlambda,
            "left operand rows must have N_lambda = {nlambda} entries"
        );
        assert_eq!(
            b.rows(),
            nlambda,
            "right operand must have N_lambda = {nlambda} rows"
        );
        assert_eq!(
            b.cols(),
            nv,
            "right operand rows must have Nv = {nv} entries"
        );
    }
}

/// Reusable tile staging buffers for [`Dptc::gemm_tiled_analytic`].
///
/// One instance per thread (see [`TILE_SCRATCH`]): the analytic GEMM is
/// called hundreds of times per decoded token with identical small
/// shapes, and per-call `Vec` allocation was a measurable slice of the
/// decode hot path. Buffers only ever grow; callers slice to the exact
/// lengths they need and must not read beyond the region they wrote
/// (stale data from earlier calls is deliberately left in place).
#[derive(Default)]
struct TileScratch {
    b_tiles: Vec<f64>,
    beta_b: Vec<f64>,
    a_tiles: Vec<f64>,
    beta_a: Vec<f64>,
}

impl TileScratch {
    /// Grows each buffer to at least the requested length and returns
    /// exact-length mutable slices.
    fn prepare(
        &mut self,
        b_tiles: usize,
        beta_b: usize,
        a_tiles: usize,
        beta_a: usize,
    ) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        fn grow(buf: &mut Vec<f64>, len: usize) -> &mut [f64] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
            &mut buf[..len]
        }
        (
            grow(&mut self.b_tiles, b_tiles),
            grow(&mut self.beta_b, beta_b),
            grow(&mut self.a_tiles, a_tiles),
            grow(&mut self.beta_a, beta_a),
        )
    }
}

thread_local! {
    /// Per-thread tile scratch — parallel row-block workers each get
    /// their own, so the hot path stays contention-free.
    static TILE_SCRATCH: std::cell::RefCell<TileScratch> =
        std::cell::RefCell::new(TileScratch::default());
}

/// The order a tile's encoding-noise draws walk its valid region.
#[derive(Clone, Copy)]
enum DrawOrder {
    /// Row by row (an `A` tile: each DDot row's operand vector in turn).
    Rows,
    /// Column by column (a `B` tile: each output column's operand
    /// vector in turn, as the DDots read it).
    Columns,
}

/// Gathers and encodes one tile — the DAC drive — and returns its
/// normalization scale `beta = max|v|`.
///
/// The valid region is `rows` rows of `cols` entries at row stride
/// `stride`; row `r` is copied from `src(r)` (`cols` entries). Zero
/// padding beyond the region is never driven onto a modulator, so it
/// consumes no DAC work and no noise draws. Three passes:
///
/// 1. The gather, folding every `|v|` into the lane-wise [`AbsMax`].
///    An all-zero tile (`beta == 0`) is left as gathered and draws
///    nothing; the caller skips its products.
/// 2. [`quantize_unit`] normalizes into `[-1, 1]` and quantizes to
///    `levels` positive levels, element by element (no draws, so the
///    order is free).
/// 3. [`perturb_tile`] draws the magnitude noise in `order`.
#[allow(clippy::too_many_arguments)]
fn encode_tile<'s>(
    tile: &mut [f64],
    rows: usize,
    cols: usize,
    stride: usize,
    src: impl Fn(usize) -> &'s [f64],
    order: DrawOrder,
    levels: f64,
    noise: &NoiseModel,
    rng: &mut GaussianSampler,
) -> f64 {
    let mut max = AbsMax::default();
    for r in 0..rows {
        max.copy_row(&mut tile[r * stride..][..cols], src(r));
    }
    let beta = max.finish();
    if beta > 0.0 {
        let inv = 1.0 / beta;
        for r in 0..rows {
            for v in &mut tile[r * stride..][..cols] {
                *v = quantize_unit(*v * inv, levels);
            }
        }
        perturb_tile(tile, rows, cols, stride, order, noise.sigma_magnitude, rng);
    }
    beta
}

/// The largest `|v|` over a tile, ignoring NaN entries exactly as a
/// `beta.max(v.abs())` chain from `0.0` does; `0.0` for an all-zero
/// tile.
///
/// Four independent lanes keep the comparisons off one serial
/// dependency chain. The result does not depend on the order entries
/// are visited in: every candidate is a non-NaN value `>= +0.0`, and
/// the maximum of such a set is unique.
#[derive(Default)]
struct AbsMax([f64; 4]);

impl AbsMax {
    #[inline(always)]
    fn fold(lane: &mut f64, v: f64) {
        let v = v.abs();
        // `v > lane` is false for NaN, so NaN never wins.
        if v > *lane {
            *lane = v;
        }
    }

    /// Copies `src` into `dst` (equal lengths), folding in every entry.
    #[inline(always)]
    fn copy_row(&mut self, dst: &mut [f64], src: &[f64]) {
        debug_assert_eq!(dst.len(), src.len(), "tile row length mismatch");
        let mut d = dst.chunks_exact_mut(4);
        let mut s = src.chunks_exact(4);
        for (d, s) in (&mut d).zip(&mut s) {
            for ((lane, o), &v) in self.0.iter_mut().zip(d).zip(s) {
                *o = v;
                Self::fold(lane, v);
            }
        }
        for ((lane, o), &v) in self.0.iter_mut().zip(d.into_remainder()).zip(s.remainder()) {
            *o = v;
            Self::fold(lane, v);
        }
    }

    fn finish(self) -> f64 {
        let mut beta = 0.0;
        for lane in self.0 {
            Self::fold(&mut beta, lane);
        }
        beta
    }
}

/// `2^52`: adding and then subtracting it rounds a non-negative double
/// below `2^52` to an integer (nearest, ties to even).
const ROUND_MAGIC: f64 = 4_503_599_627_370_496.0;

/// DAC quantization of a normalized value `v` to `levels` positive
/// levels: bit-for-bit [`Quantizer::quantize_unit`] for every non-NaN
/// `v` (including `±inf` and `±0`), without its libm `round()` call.
///
/// `round` is half-away-from-zero, i.e. `floor(|x| + 0.5)` with the
/// sign restored by `copysign` (which also reproduces `round`'s `-0.0`
/// for small negative inputs). `|x| <= levels < 2^15`, so `|x| + 0.5`
/// is exact; the magic-number add rounds it to a neighbouring integer
/// and one compare-and-step turns that into the floor. The division by
/// `levels` is the quantizer's own.
///
/// A NaN input encodes as a zero carrying the NaN's sign bit (the DAC
/// has no NaN code), where `quantize_unit` would return NaN. The
/// analytic path has always encoded a NaN entry this way.
#[inline(always)]
fn quantize_unit(v: f64, levels: f64) -> f64 {
    let x = v.clamp(-1.0, 1.0) * levels;
    let t = x.abs() + 0.5;
    let r = (t + ROUND_MAGIC) - ROUND_MAGIC;
    let floor = r - if r > t { 1.0 } else { 0.0 };
    // `floor >= 0.0` holds for every non-NaN input and fails for NaN.
    let code = if floor >= 0.0 { floor } else { 0.0 };
    (code / levels).copysign(x)
}

/// Draws the relative magnitude noise of a tile's valid region (`rows`
/// rows of `cols` entries at row stride `stride`) in `order`. A no-op,
/// drawing nothing, when `sigma` is zero.
fn perturb_tile(
    tile: &mut [f64],
    rows: usize,
    cols: usize,
    stride: usize,
    order: DrawOrder,
    sigma: f64,
    rng: &mut GaussianSampler,
) {
    if sigma <= 0.0 {
        return;
    }
    // A local copy of the sampler lets its state live in registers for
    // the whole loop (through `rng` it is stored back on every draw).
    let mut g = rng.clone();
    match order {
        DrawOrder::Rows => {
            for r in 0..rows {
                for v in &mut tile[r * stride..][..cols] {
                    *v = perturb_magnitude(*v, sigma, &mut g);
                }
            }
        }
        DrawOrder::Columns => {
            for c in 0..cols {
                for v in tile[c..].iter_mut().step_by(stride).take(rows) {
                    *v = perturb_magnitude(*v, sigma, &mut g);
                }
            }
        }
    }
    *rng = g;
}

/// The encoded operands of one tile product: `rows x lambda` entries of
/// `a` at row stride `a_stride` and `lambda x cols` entries of `b` at
/// row stride `b_stride`, both row-major.
struct TileOperands<'a> {
    a: &'a [f64],
    a_stride: usize,
    b: &'a [f64],
    b_stride: usize,
    rows: usize,
    cols: usize,
    lambda: usize,
}

/// Output columns the MAC computes at once.
const LANES: usize = 4;

/// The DDot MAC loop shared by the one-shot MM and the tiled GEMM: the
/// Eq. 9 transfer of a `rows x cols` block of DDot outputs over
/// already-encoded operands.
///
/// Only the `rows x cols` outputs are detected — a decode-style
/// `m = 1` strip computes one row, not the full `Nh x Nv` crossbar.
/// Each output draws one phase realization (folded into the
/// precomputed angle-addition tables — see
/// [`WavelengthCoefficients::msin`]) and then one systematic
/// realization, output by output in row-major order; the MAC itself
/// draws nothing, so the draws for [`LANES`] neighbouring outputs are
/// taken before their MAC runs.
///
/// The MAC runs across output-column lanes: wavelength `l` multiplies
/// `a[i][l]` into `LANES` contiguous entries of `b`'s row `l`. Every
/// output still sees exactly the scalar operation sequence of a
/// per-output loop — even wavelengths into one accumulator, odd ones
/// into a second (a single chain serializes on FP-add latency), summed
/// at the end — with separate multiplies and adds (no FMA), so lane
/// width never changes a bit. The loop has two instances, on whether
/// `noise` draws a phase drift (see [`Mac::rows`]).
///
/// With `scale == None` each output is stored into `out` (row stride
/// `out_stride`); with `Some(s)` it is rescaled and accumulated,
/// `out += v * s`. Entries outside `rows x cols` are left untouched.
#[allow(clippy::too_many_arguments)]
fn noisy_mm_rows(
    ops: TileOperands<'_>,
    noise: &NoiseModel,
    coeffs: &WavelengthCoefficients,
    rng: &mut GaussianSampler,
    out: &mut [f64],
    out_stride: usize,
    scale: Option<f64>,
) {
    let mac = Mac {
        mult0: &coeffs.mult0[..ops.lambda],
        msin: &coeffs.msin[..ops.lambda],
        imb: &coeffs.imbalance[..ops.lambda],
        noise,
    };
    // Sampler state in registers for the whole loop, as in `perturb_tile`.
    let mut g = rng.clone();
    if noise.sigma_phase_rad > 0.0 {
        mac.rows::<true>(&ops, &mut g, out, out_stride, scale);
    } else {
        mac.rows::<false>(&ops, &mut g, out, out_stride, scale);
    }
    *rng = g;
}

/// The per-call invariants of [`noisy_mm_rows`]: the wavelength
/// coefficients of the tile's `lambda` valid wavelengths and the noise
/// model.
struct Mac<'a> {
    mult0: &'a [f64],
    msin: &'a [f64],
    imb: &'a [f64],
    noise: &'a NoiseModel,
}

impl Mac<'_> {
    /// The body of [`noisy_mm_rows`]. `DRIFT` is whether the noise model
    /// draws a phase drift; without one, every output of a wavelength
    /// shares the Eq. 9 multiplier `mult0 * 1 - msin * 0`, which the
    /// compiler then computes once per wavelength instead of once per
    /// output lane.
    #[inline(always)]
    fn rows<const DRIFT: bool>(
        &self,
        ops: &TileOperands<'_>,
        rng: &mut GaussianSampler,
        out: &mut [f64],
        out_stride: usize,
        scale: Option<f64>,
    ) {
        let store = |dst: &mut [f64], v: &[f64]| match scale {
            Some(s) => dst.iter_mut().zip(v).for_each(|(o, &v)| *o += v * s),
            None => dst.copy_from_slice(v),
        };
        for i in 0..ops.rows {
            let a_row = &ops.a[i * ops.a_stride..][..ops.lambda];
            let out_row = &mut out[i * out_stride..][..ops.cols];
            let mut j = 0;
            while j + LANES <= ops.cols {
                let v = self.outputs::<LANES, DRIFT>(a_row, &ops.b[j..], ops.b_stride, rng);
                store(&mut out_row[j..j + LANES], &v);
                j += LANES;
            }
            for j in j..ops.cols {
                let v = self.outputs::<1, DRIFT>(a_row, &ops.b[j..], ops.b_stride, rng);
                store(&mut out_row[j..=j], &v);
            }
        }
    }

    /// `W` neighbouring outputs of one row: their draws in output order,
    /// then the two-accumulator Eq. 9 MAC of `a_row` against the first
    /// `W` entries of each of `lambda` rows of `b` (row stride
    /// `b_stride`).
    #[inline(always)]
    fn outputs<const W: usize, const DRIFT: bool>(
        &self,
        a_row: &[f64],
        b: &[f64],
        b_stride: usize,
        rng: &mut GaussianSampler,
    ) -> [f64; W] {
        let systematic = self.noise.sigma_systematic > 0.0;
        // `(0, 1)` is `phase_drift`'s value when phase noise is off.
        let (mut sg, mut cg, mut gain) = ([0.0; W], [1.0; W], [1.0; W]);
        for k in 0..W {
            if DRIFT {
                (sg[k], cg[k]) = phase_drift(self.noise, rng);
            }
            if systematic {
                gain[k] = systematic_gain(self.noise, rng);
            }
        }
        let lambda = self.mult0.len();
        let (mut io0, mut io1) = ([0.0; W], [0.0; W]);
        let mut l = 0;
        while l + 1 < lambda {
            let (x0, x1) = (a_row[l], a_row[l + 1]);
            let y0 = &b[l * b_stride..][..W];
            let y1 = &b[(l + 1) * b_stride..][..W];
            for k in 0..W {
                io0[k] += (self.mult0[l] * cg[k] - self.msin[l] * sg[k]) * x0 * y0[k]
                    + self.imb[l] * (x0 * x0 - y0[k] * y0[k]);
                io1[k] += (self.mult0[l + 1] * cg[k] - self.msin[l + 1] * sg[k]) * x1 * y1[k]
                    + self.imb[l + 1] * (x1 * x1 - y1[k] * y1[k]);
            }
            l += 2;
        }
        if l < lambda {
            let x = a_row[l];
            let y = &b[l * b_stride..][..W];
            for k in 0..W {
                io0[k] += (self.mult0[l] * cg[k] - self.msin[l] * sg[k]) * x * y[k]
                    + self.imb[l] * (x * x - y[k] * y[k]);
            }
        }
        let mut v = [0.0; W];
        for k in 0..W {
            let io = io0[k] + io1[k];
            v[k] = if systematic { io * gain[k] } else { io };
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_matrix(rng: &mut GaussianSampler, r: usize, c: usize) -> Matrix64 {
        Matrix64::from_fn(r, c, |_, _| rng.uniform_in(-1.0, 1.0))
    }

    fn rand_scaled(rng: &mut GaussianSampler, r: usize, c: usize, scale: f64) -> Matrix64 {
        Matrix64::from_fn(r, c, |_, _| rng.uniform_in(-scale, scale))
    }

    fn paper_noisy(seed: u64) -> Fidelity {
        Fidelity::AnalyticNoisy {
            noise: NoiseModel::paper_default(),
            seed,
        }
    }

    #[test]
    fn ideal_matches_reference_matmul() {
        let core = Dptc::new(DptcConfig::new(3, 5, 4));
        let mut rng = GaussianSampler::new(1);
        let a = rand_matrix(&mut rng, 3, 4);
        let b = rand_matrix(&mut rng, 4, 5);
        let out = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let reference = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(out.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn eq6_saving_factor() {
        // Nh = Nv = N_lambda = 12 => 12x less encoding cost (paper text).
        let core = Dptc::new(DptcConfig::lt_paper());
        let cost = core.encoding_cost();
        assert_eq!(cost.shared, 12 * 12 + 12 * 12);
        assert_eq!(cost.unshared, 2 * 12 * 12 * 12);
        assert!((cost.saving_factor() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn eq6_general_formula() {
        let core = Dptc::new(DptcConfig::new(8, 24, 12));
        let cost = core.encoding_cost();
        let expect = 2.0 * 8.0 * 24.0 / (8.0 + 24.0);
        assert!((cost.saving_factor() - expect).abs() < 1e-12);
    }

    #[test]
    fn tiles_match_eq11() {
        let cfg = DptcConfig::lt_paper();
        // DeiT-T QK^T per head: [197, 64] x [64, 197].
        let t = cfg.tiles_for(197, 64, 197);
        assert_eq!(t, 17 * 6 * 17);
        assert!(cfg.utilization(197, 64, 197) < 1.0);
        // Perfectly divisible workload has utilization 1.
        assert!((cfg.utilization(24, 24, 24) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_matmul_tracks_ideal() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(5);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let noisy = core.matmul(a.view(), b.view(), &paper_noisy(7));
        let max_err = ideal.max_abs_diff(&noisy);
        // Errors stay in the few-percent band relative to the length-12
        // dot-product scale.
        assert!(max_err > 0.0 && max_err < 0.8, "max_err {max_err}");
    }

    #[test]
    fn circuit_level_matmul_tracks_ideal() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(21);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let circuit = core.matmul(
            a.view(),
            b.view(),
            &Fidelity::Circuit {
                noise: NoiseModel::paper_default(),
                seed: 9,
            },
        );
        let analytic = core.matmul(a.view(), b.view(), &paper_noisy(9));
        let max_circuit = circuit.max_abs_diff(&ideal);
        let max_analytic = analytic.max_abs_diff(&ideal);
        // Both fidelities stay in the same error envelope.
        assert!(
            max_circuit > 0.0 && max_circuit < 0.8,
            "circuit err {max_circuit}"
        );
        assert!(
            max_circuit < 3.0 * max_analytic.max(0.05),
            "circuit {max_circuit} vs analytic {max_analytic}"
        );
    }

    #[test]
    fn circuit_level_matmul_noiseless_has_only_dispersion_bias() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(23);
        let a = rand_matrix(&mut rng, 12, 12);
        let b = rand_matrix(&mut rng, 12, 12);
        let ideal = core.matmul(a.view(), b.view(), &Fidelity::Ideal);
        let noise =
            NoiseModel::noiseless().with_dispersion(lt_photonics::wdm::DispersionModel::paper());
        let circuit = core.matmul(a.view(), b.view(), &Fidelity::Circuit { noise, seed: 0 });
        assert!(
            circuit.max_abs_diff(&ideal) < 0.05,
            "max dispersion bias {}",
            circuit.max_abs_diff(&ideal)
        );
    }

    #[test]
    fn noiseless_gemm_equals_quantized_reference() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(9);
        let (m, d, n) = (20, 30, 17);
        let a = rand_scaled(&mut rng, m, d, 2.0);
        let b = rand_scaled(&mut rng, d, n, 3.0);
        let out = core.gemm_quantized(a.view(), b.view(), 8);
        // Compare against a straightforward f64 matmul; 8-bit quantization
        // keeps per-tile error small.
        let exact = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(
            out.max_abs_diff(&exact) < 0.3,
            "max quantization error {}",
            out.max_abs_diff(&exact)
        );
    }

    #[test]
    fn ideal_gemm_is_bit_exact_with_shared_kernel() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(31);
        let a = rand_scaled(&mut rng, 19, 37, 2.0);
        let b = rand_scaled(&mut rng, 37, 23, 2.0);
        let out = core.gemm(a.view(), b.view(), 4, &Fidelity::Ideal);
        assert_eq!(out, a.matmul(&b), "Ideal fidelity is the exact contract");
    }

    #[test]
    fn gemm_handles_non_divisible_edges() {
        let core = Dptc::new(DptcConfig::new(4, 4, 4));
        let mut rng = GaussianSampler::new(11);
        let (m, d, n) = (5, 7, 3);
        let a = rand_matrix(&mut rng, m, d);
        let b = rand_matrix(&mut rng, d, n);
        let out = core.gemm(
            a.view(),
            b.view(),
            8,
            &Fidelity::AnalyticNoisy {
                noise: NoiseModel::noiseless(),
                seed: 0,
            },
        );
        assert_eq!(out.shape(), (m, n));
        let exact = lt_core::reference_gemm(&a.view(), &b.view());
        assert!(out.max_abs_diff(&exact) < 0.1);
    }

    #[test]
    fn zero_tiles_are_skipped() {
        let core = Dptc::new(DptcConfig::new(4, 4, 4));
        let a = Matrix64::zeros(4, 4);
        let b = Matrix64::from_fn(4, 4, |_, _| 1.0);
        let out = core.gemm(a.view(), b.view(), 4, &paper_noisy(3));
        assert!(out.data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gemm_noise_is_seed_deterministic() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let mut rng = GaussianSampler::new(13);
        let a = rand_matrix(&mut rng, 24, 24);
        let b = rand_matrix(&mut rng, 24, 24);
        let o1 = core.gemm(a.view(), b.view(), 4, &paper_noisy(42));
        let o2 = core.gemm(a.view(), b.view(), 4, &paper_noisy(42));
        assert_eq!(o1, o2);
    }

    #[test]
    #[should_panic(expected = "must have Nh")]
    fn wrong_shapes_rejected() {
        let core = Dptc::new(DptcConfig::lt_paper());
        let a = Matrix64::zeros(5, 12);
        let b = Matrix64::zeros(12, 12);
        core.matmul(a.view(), b.view(), &Fidelity::Ideal);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_config_rejected() {
        DptcConfig::new(0, 12, 12);
    }
}
