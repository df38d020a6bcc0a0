//! Arbitration kernel selection.
//!
//! Every fabric ships two functionally identical arbitration pipelines:
//! the original *scalar* pipeline that walks per-request lists, and a
//! *word-parallel* pipeline that carries the request→bin→grant flow as
//! masked `u64` word operations end-to-end (the representation
//! [`MatrixArbiter::grant_words`](crate::MatrixArbiter::grant_words)
//! consumes directly). The word pipeline is monomorphized over the mask
//! word count `W` at fabric construction — radix 16/32/64 resolve to
//! `W = 1`, 65–128 to `W = 2`, 129–256 to `W = 4` — so the compiler
//! unrolls the word loops for the standard grid. Geometries beyond 256
//! fall back to the scalar pipeline.
//!
//! Both kernels produce bit-identical grant sequences; the differential
//! suite (`tests/differential.rs`) co-steps scalar and word twins to pin
//! that equivalence.

/// Which arbitration kernel a fabric instance executes. Selected once at
/// construction; see [`Switch2d::with_kernel`](crate::Switch2d::with_kernel)
/// and [`HiRiseSwitch::with_kernel`](crate::HiRiseSwitch::with_kernel).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ArbiterKernel {
    /// Word-parallel masked-word pipeline (the default). Falls back to
    /// the scalar pipeline for geometries it does not cover.
    #[default]
    Word,
    /// The original per-request scalar pipeline.
    Scalar,
}

impl ArbiterKernel {
    /// Stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Self::Word => "word",
            Self::Scalar => "scalar",
        }
    }
}

/// Resolved kernel: the monomorphization a fabric instance dispatches to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum KernelSel {
    Scalar,
    Word1,
    Word2,
    Word4,
}

impl KernelSel {
    /// Resolves a requested kernel against the widest bit mask the
    /// fabric's word pipeline must carry (`mask_bits` positions).
    pub(crate) fn resolve(kernel: ArbiterKernel, mask_bits: usize) -> Self {
        match kernel {
            ArbiterKernel::Scalar => Self::Scalar,
            ArbiterKernel::Word => match mask_bits.div_ceil(64) {
                0 | 1 => Self::Word1,
                2 => Self::Word2,
                4 => Self::Word4,
                _ => Self::Scalar,
            },
        }
    }

    /// The kernel actually in effect (word fallbacks report as scalar).
    pub(crate) fn effective(self) -> ArbiterKernel {
        match self {
            Self::Scalar => ArbiterKernel::Scalar,
            _ => ArbiterKernel::Word,
        }
    }

    /// Mask word count for the word kernels; `None` for scalar.
    pub(crate) fn words(self) -> Option<usize> {
        match self {
            Self::Scalar => None,
            Self::Word1 => Some(1),
            Self::Word2 => Some(2),
            Self::Word4 => Some(4),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_covers_the_standard_grid() {
        for radix in [16usize, 32, 64] {
            assert_eq!(
                KernelSel::resolve(ArbiterKernel::Word, radix),
                KernelSel::Word1
            );
        }
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Word, 128),
            KernelSel::Word2
        );
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Word, 256),
            KernelSel::Word4
        );
        // div_ceil = 3 has no monomorphized kernel: scalar fallback.
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Word, 192),
            KernelSel::Scalar
        );
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Scalar, 64),
            KernelSel::Scalar
        );
    }

    #[test]
    fn labels_round_trip() {
        assert_eq!(ArbiterKernel::Word.label(), "word");
        assert_eq!(ArbiterKernel::Scalar.label(), "scalar");
    }

    #[test]
    fn effective_kernel_reports_fallback() {
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Word, 512).effective(),
            ArbiterKernel::Scalar
        );
        assert_eq!(
            KernelSel::resolve(ArbiterKernel::Word, 64).effective(),
            ArbiterKernel::Word
        );
        assert_eq!(KernelSel::Word2.words(), Some(2));
        assert_eq!(KernelSel::Scalar.words(), None);
    }
}
