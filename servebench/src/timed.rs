//! A `ComputeBackend` wrapper that times every GEMM entered through it.
//!
//! The traced pass hands the frontend's scheduler a `Timed<B>` instead of
//! `B`. Every trait method forwards to the wrapped backend unchanged, so
//! values and seed streams are identical; the wrapper only adds a call
//! count, the host nanoseconds spent inside the call and the MACs it
//! computed. Integer GEMMs inside `Linear` never reach the backend, so
//! they do not show here.

use lt_core::{ComputeBackend, Matrix64, MatrixView, OpKind, RunCtx};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Running totals of the GEMMs that went through a [`Timed`] backend.
#[derive(Debug, Default)]
pub struct KernelCounters {
    calls: AtomicU64,
    nanos: AtomicU64,
    macs: AtomicU64,
}

/// A snapshot of [`KernelCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KernelTotals {
    /// GEMM calls.
    pub calls: u64,
    /// Host nanoseconds inside those calls.
    pub nanos: u64,
    /// Multiply-accumulates those calls computed.
    pub macs: u64,
}

impl KernelCounters {
    /// The totals so far. The counters are statistics that publish no
    /// other data, so relaxed loads suffice.
    pub fn totals(&self) -> KernelTotals {
        KernelTotals {
            calls: self.calls.load(Ordering::Relaxed),
            nanos: self.nanos.load(Ordering::Relaxed),
            macs: self.macs.load(Ordering::Relaxed),
        }
    }

    fn add(&self, calls: u64, start: Instant, macs: usize) {
        let nanos = start.elapsed().as_nanos() as u64;
        self.calls.fetch_add(calls, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.macs.fetch_add(macs as u64, Ordering::Relaxed);
    }
}

/// `B` with every GEMM timed into shared [`KernelCounters`]. Clones share
/// the counters, as scheduler sessions clone their backend.
#[derive(Debug, Clone)]
pub struct Timed<B> {
    inner: B,
    counters: Arc<KernelCounters>,
}

impl<B> Timed<B> {
    /// Wraps `inner` with fresh counters.
    pub fn new(inner: B) -> Self {
        Timed {
            inner,
            counters: Arc::new(KernelCounters::default()),
        }
    }

    /// The shared counters.
    pub fn counters(&self) -> Arc<KernelCounters> {
        Arc::clone(&self.counters)
    }
}

fn macs(a: MatrixView<'_, f64>, b: MatrixView<'_, f64>) -> usize {
    a.rows() * a.cols() * b.cols()
}

impl<B: ComputeBackend> ComputeBackend for Timed<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn gemm(&self, a: MatrixView<'_, f64>, b: MatrixView<'_, f64>, ctx: &mut RunCtx) -> Matrix64 {
        let start = Instant::now();
        let out = self.inner.gemm(a, b, ctx);
        self.counters.add(1, start, macs(a, b));
        out
    }

    fn gemm_into(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
        out: &mut Matrix64,
    ) {
        let start = Instant::now();
        self.inner.gemm_into(a, b, ctx, out);
        self.counters.add(1, start, macs(a, b));
    }

    fn gemm_traced(
        &self,
        kind: OpKind,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        ctx: &mut RunCtx,
    ) -> Matrix64 {
        let start = Instant::now();
        let out = self.inner.gemm_traced(kind, a, b, ctx);
        self.counters.add(1, start, macs(a, b));
        out
    }

    fn gemm_batch(
        &self,
        pairs: &[(MatrixView<'_, f64>, MatrixView<'_, f64>)],
        ctx: &mut RunCtx,
    ) -> Vec<Matrix64> {
        let start = Instant::now();
        let out = self.inner.gemm_batch(pairs, ctx);
        let total = pairs.iter().map(|&(a, b)| macs(a, b)).sum();
        self.counters.add(pairs.len() as u64, start, total);
        out
    }

    fn preferred_block_rows(&self) -> usize {
        self.inner.preferred_block_rows()
    }

    fn gemm_block(
        &self,
        a_rows: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        block_seed: u64,
    ) -> Matrix64 {
        let start = Instant::now();
        let out = self.inner.gemm_block(a_rows, b, block_seed);
        self.counters.add(1, start, macs(a_rows, b));
        out
    }

    fn gemm_accumulate(
        &self,
        a: MatrixView<'_, f64>,
        b: MatrixView<'_, f64>,
        out: &mut Matrix64,
        ctx: &mut RunCtx,
    ) {
        let start = Instant::now();
        self.inner.gemm_accumulate(a, b, out, ctx);
        self.counters.add(1, start, macs(a, b));
    }
}
