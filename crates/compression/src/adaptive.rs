//! Adaptive compression: turn the encoder off when it stops paying.
//!
//! Jin et al. (MICRO'08) — the paper's DI-COMP source — propose "a data
//! compression mechanism that learns frequent data patterns ... and
//! adaptively turns the compression on/off based on the efficacy of
//! compression on the network performance". [`AdaptiveEncoder`] wraps any
//! [`BlockEncoder`] with that controller: while ON it tracks the achieved
//! compression ratio over a window of blocks and switches OFF when the
//! ratio drops below the profitability threshold (tag overhead plus codec
//! latency would then hurt); while OFF it bypasses compression — zero added
//! latency — and periodically probes a block through the encoder to detect
//! when compression becomes worthwhile again.

use anoc_core::codec::{BlockEncoder, CodecActivity, EncodedBlock, Notification, WordCode};
use anoc_core::data::{CacheBlock, NodeId};
use anoc_core::snap::{SnapError, SnapReader, SnapWriter};
use anoc_core::threshold::ErrorThreshold;

/// Controller parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Blocks per evaluation window while ON.
    pub window_blocks: u32,
    /// Minimum compression ratio that keeps the encoder ON (must cover the
    /// tag overhead and the 3-cycle latency; Jin et al. use a small margin
    /// over 1.0).
    pub min_ratio: f64,
    /// While OFF, probe one block through the encoder every this many
    /// blocks.
    pub probe_interval: u32,
    /// Consecutive profitable probes required to switch back ON.
    pub probes_to_reenable: u32,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            window_blocks: 64,
            min_ratio: 1.10,
            probe_interval: 16,
            probes_to_reenable: 2,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    On,
    Off,
}

/// A [`BlockEncoder`] wrapper implementing the adaptive on/off controller.
#[derive(Debug)]
pub struct AdaptiveEncoder<E> {
    inner: E,
    config: AdaptiveConfig,
    mode: Mode,
    window_in_bits: u64,
    window_out_bits: u64,
    window_count: u32,
    off_count: u32,
    good_probes: u32,
    /// Mode transitions observed (for tests/telemetry).
    transitions: u64,
}

impl<E: BlockEncoder> AdaptiveEncoder<E> {
    /// Wraps `inner` with the default controller parameters.
    pub fn new(inner: E) -> Self {
        AdaptiveEncoder::with_config(inner, AdaptiveConfig::default())
    }

    /// Wraps `inner` with explicit parameters.
    pub fn with_config(inner: E, config: AdaptiveConfig) -> Self {
        AdaptiveEncoder {
            inner,
            config,
            mode: Mode::On,
            window_in_bits: 0,
            window_out_bits: 0,
            window_count: 0,
            off_count: 0,
            good_probes: 0,
            transitions: 0,
        }
    }

    /// Whether compression is currently enabled.
    pub fn is_on(&self) -> bool {
        self.mode == Mode::On
    }

    /// Number of ON↔OFF transitions so far.
    pub fn transitions(&self) -> u64 {
        self.transitions
    }

    /// Read access to the wrapped encoder.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    fn bypass(block: &CacheBlock) -> EncodedBlock {
        let codes = block
            .words()
            .iter()
            .map(|w| WordCode::Raw {
                word: *w,
                prefix_bits: 0,
            })
            .collect();
        EncodedBlock::new(codes, block.dtype(), block.is_approximable())
    }

    fn block_ratio(block: &CacheBlock, encoded: &EncodedBlock) -> f64 {
        let out = encoded.payload_bits().max(1) as f64;
        block.size_bits() as f64 / out
    }
}

impl<E: BlockEncoder> BlockEncoder for AdaptiveEncoder<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn encode(&mut self, block: &CacheBlock, dest: NodeId) -> EncodedBlock {
        match self.mode {
            Mode::On => {
                let encoded = self.inner.encode(block, dest);
                self.window_in_bits += block.size_bits();
                self.window_out_bits += encoded.payload_bits() as u64;
                self.window_count += 1;
                if self.window_count >= self.config.window_blocks {
                    let ratio = self.window_in_bits as f64 / self.window_out_bits.max(1) as f64;
                    if ratio < self.config.min_ratio {
                        self.mode = Mode::Off;
                        self.transitions += 1;
                        self.off_count = 0;
                        self.good_probes = 0;
                    }
                    self.window_in_bits = 0;
                    self.window_out_bits = 0;
                    self.window_count = 0;
                }
                encoded
            }
            Mode::Off => {
                self.off_count += 1;
                if self.off_count.is_multiple_of(self.config.probe_interval) {
                    // Probe: run the encoder for real on this block.
                    let encoded = self.inner.encode(block, dest);
                    if Self::block_ratio(block, &encoded) >= self.config.min_ratio {
                        self.good_probes += 1;
                        if self.good_probes >= self.config.probes_to_reenable {
                            self.mode = Mode::On;
                            self.transitions += 1;
                        }
                    } else {
                        self.good_probes = 0;
                    }
                    encoded
                } else {
                    Self::bypass(block)
                }
            }
        }
    }

    /// The compression latency is only paid while the encoder is ON.
    fn compression_latency(&self) -> u64 {
        match self.mode {
            Mode::On => self.inner.compression_latency(),
            Mode::Off => 0,
        }
    }

    fn apply_notification(&mut self, from: NodeId, note: Notification) {
        self.inner.apply_notification(from, note);
    }

    fn activity(&self) -> CodecActivity {
        self.inner.activity()
    }

    fn set_error_threshold(&mut self, threshold: ErrorThreshold) {
        self.inner.set_error_threshold(threshold);
    }

    /// The controller state, then the wrapped encoder's.
    fn save_state(&self, w: &mut SnapWriter) {
        w.bool(self.mode == Mode::On);
        w.u64(self.window_in_bits);
        w.u64(self.window_out_bits);
        w.u32(self.window_count);
        w.u32(self.off_count);
        w.u32(self.good_probes);
        w.u64(self.transitions);
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.mode = if r.bool()? { Mode::On } else { Mode::Off };
        self.window_in_bits = r.u64()?;
        self.window_out_bits = r.u64()?;
        self.window_count = r.u32()?;
        self.off_count = r.u32()?;
        self.good_probes = r.u32()?;
        self.transitions = r.u64()?;
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fp::{FpDecoder, FpEncoder};
    use anoc_core::codec::BlockDecoder;
    use anoc_core::rng::Pcg32;

    fn incompressible_block(rng: &mut Pcg32) -> CacheBlock {
        // High-entropy 32-bit values fit no frequent pattern.
        CacheBlock::from_i32(
            &(0..16)
                .map(|_| (rng.next_u32() | 0x8080_8080) as i32)
                .collect::<Vec<_>>(),
        )
        .with_approximable(false)
    }

    fn compressible_block() -> CacheBlock {
        CacheBlock::from_i32(&[0, 1, -2, 3, 0, 0, 7, -8, 0, 1, 2, 3, 0, 0, 0, 0])
    }

    fn cfg() -> AdaptiveConfig {
        AdaptiveConfig {
            window_blocks: 8,
            min_ratio: 1.10,
            probe_interval: 4,
            probes_to_reenable: 2,
        }
    }

    #[test]
    fn turns_off_on_incompressible_traffic() {
        let mut enc = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        assert!(enc.is_on());
        let mut rng = Pcg32::seed_from_u64(1);
        for _ in 0..8 {
            enc.encode(&incompressible_block(&mut rng), NodeId(1));
        }
        assert!(!enc.is_on(), "should have turned off after one bad window");
        assert_eq!(enc.transitions(), 1);
        // While off, latency is zero and blocks travel tag-free.
        assert_eq!(enc.compression_latency(), 0);
        let e = enc.encode(&incompressible_block(&mut rng), NodeId(1));
        assert_eq!(e.payload_bits(), 512, "bypass adds no tag overhead");
    }

    #[test]
    fn probes_reenable_on_compressible_traffic() {
        let mut enc = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        let mut rng = Pcg32::seed_from_u64(2);
        for _ in 0..8 {
            enc.encode(&incompressible_block(&mut rng), NodeId(1));
        }
        assert!(!enc.is_on());
        // Compressible traffic: every 4th block is probed; two good probes
        // re-enable.
        for _ in 0..8 {
            enc.encode(&compressible_block(), NodeId(1));
        }
        assert!(enc.is_on(), "probes should re-enable compression");
        assert_eq!(enc.transitions(), 2);
        assert_eq!(enc.compression_latency(), 3);
    }

    #[test]
    fn stays_on_for_compressible_traffic() {
        let mut enc = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        for _ in 0..64 {
            enc.encode(&compressible_block(), NodeId(1));
        }
        assert!(enc.is_on());
        assert_eq!(enc.transitions(), 0);
    }

    #[test]
    fn every_mode_is_lossless() {
        let mut enc = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        let mut dec = FpDecoder::new();
        let mut rng = Pcg32::seed_from_u64(3);
        // Alternate phases to force transitions, decoding everything.
        for phase in 0..6 {
            for _ in 0..10 {
                let block = if phase % 2 == 0 {
                    incompressible_block(&mut rng)
                } else {
                    compressible_block()
                };
                let e = enc.encode(&block, NodeId(1));
                let d = dec.decode(&e, NodeId(0)).block;
                assert_eq!(d, block);
            }
        }
        assert!(enc.transitions() >= 2, "phases should toggle the mode");
        assert_eq!(enc.name(), "FP-COMP");
        assert!(format!("{enc:?}").contains("AdaptiveEncoder"));
    }

    #[test]
    fn controller_state_round_trips_and_truncation_is_an_error() {
        let mut enc = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        let mut rng = Pcg32::seed_from_u64(4);
        for _ in 0..11 {
            enc.encode(&incompressible_block(&mut rng), NodeId(1));
        }
        assert!(!enc.is_on());
        let mut w = SnapWriter::new();
        enc.save_state(&mut w);
        let bytes = w.into_bytes();
        let mut back = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
        back.load_state(&mut SnapReader::new(&bytes)).expect("load");
        assert_eq!(format!("{back:?}"), format!("{enc:?}"));
        assert_eq!(back.activity(), enc.activity());
        // The restored controller continues exactly where the saved one was.
        for _ in 0..8 {
            let block = compressible_block();
            assert_eq!(
                enc.encode(&block, NodeId(1)),
                back.encode(&block, NodeId(1))
            );
        }
        assert_eq!(back.transitions(), enc.transitions());
        for cut in 0..bytes.len() {
            let mut fresh = AdaptiveEncoder::with_config(FpEncoder::fp_comp(), cfg());
            assert!(fresh
                .load_state(&mut SnapReader::new(&bytes[..cut]))
                .is_err());
        }
    }

    #[test]
    fn default_config_is_sane() {
        let c = AdaptiveConfig::default();
        assert!(c.min_ratio > 1.0);
        assert!(c.window_blocks > 0 && c.probe_interval > 0);
        let e = AdaptiveEncoder::new(FpEncoder::fp_comp());
        assert!(e.is_on());
        assert_eq!(e.inner().name(), "FP-COMP");
    }
}
