//! Cycle-cost models of the coprocessors.
//!
//! Calibrated so that (a) the per-stage costs are in the paper's
//! processing-step range of 10–1000 cycles (Section 5.3), and (b) the
//! per-frame-type bottlenecks reproduce the paper's Figure 10 analysis:
//!
//! * **I pictures** carry many coefficients → the RLSQ's per-coefficient
//!   cost dominates;
//! * **P pictures** carry few coefficients but most blocks remain coded →
//!   the DCT's fixed per-block cost dominates;
//! * **B pictures** need bidirectional reference fetches from off-chip
//!   memory → the MC dominates (and the paper's fix — pipelining the DCT,
//!   better prefetching — is reproduced as ablations over these knobs).

/// VLD cost model.
#[derive(Debug, Clone, Copy)]
pub struct VldCost {
    /// Fixed cycles per macroblock (control overhead).
    pub per_mb: u64,
    /// Cycles per 4 bits parsed (the bit-serial decode core).
    pub per_4bits: u64,
    /// Cycles per header parsed.
    pub per_header: u64,
    /// Bytes fetched from off-chip memory per fetch transaction.
    pub fetch_chunk: u32,
}

impl Default for VldCost {
    fn default() -> Self {
        VldCost {
            per_mb: 12,
            per_4bits: 1,
            per_header: 24,
            fetch_chunk: 128,
        }
    }
}

/// RLSQ cost model.
#[derive(Debug, Clone, Copy)]
pub struct RlsqCost {
    /// Fixed cycles per macroblock.
    pub per_mb: u64,
    /// Cycles per coded block.
    pub per_block: u64,
    /// Cycles per non-zero coefficient (run-length + scan + quant).
    pub per_coef: u64,
}

impl Default for RlsqCost {
    fn default() -> Self {
        RlsqCost {
            per_mb: 10,
            per_block: 6,
            per_coef: 6,
        }
    }
}

/// DCT cost model.
#[derive(Debug, Clone, Copy)]
pub struct DctCost {
    /// Cycles per 8×8 block transformed. The paper's instance initially
    /// used a non-pipelined unit; pipelining it (their Figure 10
    /// conclusion) roughly halves this.
    pub per_block: u64,
}

impl Default for DctCost {
    fn default() -> Self {
        DctCost { per_block: 80 }
    }
}

impl DctCost {
    /// The pipelined DCT of the paper's follow-up work (ablation E1b).
    pub fn pipelined() -> Self {
        DctCost { per_block: 38 }
    }
}

/// MC/ME cost model.
#[derive(Debug, Clone, Copy)]
pub struct McCost {
    /// Fixed cycles per macroblock (control + address generation).
    pub per_mb: u64,
    /// Cycles per residual block added.
    pub per_block_add: u64,
    /// Cycles per SAD evaluation during motion estimation.
    pub per_sad: u64,
}

impl Default for McCost {
    fn default() -> Self {
        McCost {
            per_mb: 18,
            per_block_add: 10,
            per_sad: 24,
        }
    }
}

/// DSP-CPU (software) cost model: software pays a multiplier over the
/// equivalent hardware operation plus a per-primitive OS/driver overhead.
#[derive(Debug, Clone, Copy)]
pub struct DspCost {
    /// Cycles per byte moved by a software task.
    pub per_byte: u64,
    /// Fixed cycles per record handled.
    pub per_record: u64,
}

impl Default for DspCost {
    fn default() -> Self {
        DspCost {
            per_byte: 1,
            per_record: 40,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_in_processing_step_range() {
        // Paper Section 5.3: steps of 10-1000 cycles. Spot-check typical
        // packets: an I macroblock at RLSQ (~150 coefs, 6 blocks), a DCT
        // block, a VLD macroblock (~800 bits).
        let rlsq = RlsqCost::default();
        let i_mb = rlsq.per_mb + 6 * rlsq.per_block + 150 * rlsq.per_coef;
        assert!((10..=1000).contains(&i_mb), "RLSQ I-MB step {i_mb}");
        let dct = DctCost::default();
        assert!((10..=1000).contains(&dct.per_block));
        let vld = VldCost::default();
        let vld_mb = vld.per_mb + 800 / 4 * vld.per_4bits;
        assert!((10..=1000).contains(&vld_mb), "VLD I-MB step {vld_mb}");
    }

    #[test]
    fn pipelined_dct_is_faster() {
        assert!(DctCost::pipelined().per_block < DctCost::default().per_block / 2 + 5);
    }
}
