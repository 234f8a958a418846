//! Quantization-aware training support and true integer execution.
//!
//! The paper applies low-bit quantization to weights and activations
//! (LSQ-style \[15\]) and trains with noise injected. We implement symmetric
//! per-tensor fake quantization with a straight-through estimator: the
//! forward pass sees quantized values, the backward pass treats the
//! quantizer as identity.
//!
//! On top of that, [`IntegerQuant`] selects a *true* integer execution
//! path for weight-bearing layers: operands are encoded to i8/i4 codes
//! with grouped per-channel scales ([`lt_core::QuantizedMatrix`]) and
//! multiplied by [`lt_core::quantized_gemm`] with f32 accumulation —
//! the executable counterpart of the 8-bit/4-bit `ArchConfig` work
//! modes rather than a float emulation of them.

use crate::tensor::Tensor;
use lt_dptc::Quantizer;
use std::borrow::Cow;

/// True integer execution settings for weight-bearing layers.
///
/// When present on a [`QuantConfig`], every [`crate::layers::Linear`] product is
/// computed by [`lt_core::quantized_gemm`] over i8/i4 codes with grouped
/// per-channel scales: activations are quantized per-row, weights
/// per-column, both along the shared reduction dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegerQuant {
    /// Code bit-width: 4 or 8.
    pub bits: u32,
    /// Scale-group width along the reduction dimension (a trailing
    /// partial group is allowed).
    pub group: usize,
}

/// Default scale-group width for the integer path — matches the DPTC
/// tile depth used by the 8-bit/4-bit work modes.
pub const DEFAULT_INT_GROUP: usize = 32;

/// Fake-quantization configuration shared by a whole model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantConfig {
    /// Bit-width; `None` disables quantization (fp32 reference).
    pub bits: Option<u32>,
    /// True integer execution for weight-bearing layers; `None` keeps
    /// the float engines (fake-quantized or exact per `bits`).
    pub integer: Option<IntegerQuant>,
}

impl QuantConfig {
    /// Full-precision (no quantization).
    pub fn fp32() -> Self {
        QuantConfig {
            bits: None,
            integer: None,
        }
    }

    /// `bits`-bit symmetric quantization of weights and activations.
    pub fn low_bit(bits: u32) -> Self {
        QuantConfig {
            bits: Some(bits),
            integer: None,
        }
    }

    /// True i8 execution of weight-bearing layers (the 8-bit work mode).
    pub fn int8() -> Self {
        Self::integer(8, DEFAULT_INT_GROUP)
    }

    /// True i4 execution of weight-bearing layers (the 4-bit work mode).
    pub fn int4() -> Self {
        Self::integer(4, DEFAULT_INT_GROUP)
    }

    /// True integer execution with an explicit bit-width and scale-group
    /// width. Fake quantization (`bits`) is off: the integer path already
    /// quantizes its own operands.
    pub fn integer(bits: u32, group: usize) -> Self {
        QuantConfig {
            bits: None,
            integer: Some(IntegerQuant { bits, group }),
        }
    }

    /// Fake-quantizes a tensor (per-tensor max-abs scale). Identity when
    /// disabled or when the tensor is all-zero — then the tensor is
    /// borrowed, not copied, so an fp32 product reads its operands (the
    /// weight included) in place.
    pub fn apply<'a>(&self, t: &'a Tensor) -> Cow<'a, Tensor> {
        match self.bits {
            None => Cow::Borrowed(t),
            Some(bits) => {
                let q = Quantizer::new(bits);
                let scale = t.max_abs() as f64;
                if scale == 0.0 {
                    return Cow::Borrowed(t);
                }
                Cow::Owned(t.map(|v| q.fake_quantize(v as f64, scale) as f32))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp32_is_identity() {
        let t = Tensor::from_vec(1, 3, vec![0.1, -0.7, 0.33]);
        assert!(matches!(QuantConfig::fp32().apply(&t), Cow::Borrowed(b) if *b == t));
    }

    #[test]
    fn quantization_error_bounded_by_half_step() {
        let t = Tensor::from_fn(4, 4, |i, j| ((i * 4 + j) as f32 / 8.0) - 1.0);
        let q = QuantConfig::low_bit(4).apply(&t);
        let scale = t.max_abs();
        let step = scale / 7.0;
        assert!(t.max_abs_diff(&q) <= step / 2.0 + 1e-6);
    }

    #[test]
    fn eight_bit_is_tighter_than_four_bit() {
        let t = Tensor::from_fn(8, 8, |i, j| (i as f32).sin() * (j as f32).cos());
        let e4 = t.max_abs_diff(&QuantConfig::low_bit(4).apply(&t));
        let e8 = t.max_abs_diff(&QuantConfig::low_bit(8).apply(&t));
        assert!(e8 < e4);
    }

    #[test]
    fn zero_tensor_passes_through() {
        let t = Tensor::zeros(2, 2);
        assert!(matches!(QuantConfig::low_bit(4).apply(&t), Cow::Borrowed(b) if *b == t));
    }

    #[test]
    fn integer_modes_disable_fake_quantization() {
        for cfg in [QuantConfig::int8(), QuantConfig::int4()] {
            assert!(cfg.bits.is_none());
            let t = Tensor::from_vec(1, 3, vec![0.1, -0.7, 0.33]);
            assert_eq!(*cfg.apply(&t), t);
        }
        assert_eq!(
            QuantConfig::int8().integer,
            Some(IntegerQuant {
                bits: 8,
                group: DEFAULT_INT_GROUP
            })
        );
        assert_eq!(QuantConfig::int4().integer.unwrap().bits, 4);
    }
}
