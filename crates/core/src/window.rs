//! Window-based cumulative error budgets — the paper's §7 future work.
//!
//! Instead of a conservative per-word error threshold, a *window* of words
//! shares one cumulative error budget: words that compress exactly donate
//! their unused tolerance to later words, "so as to achieve more approximate
//! matches. This can be applicable especially in cases of video/image
//! applications where the error rate over a frame is more appropriate than a
//! conservative per word error threshold."

use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::threshold::ErrorThreshold;

/// A sliding per-window error budget.
///
/// The budget is `window × base_percent` percentage points of relative error
/// per window of words; each word may spend up to the remaining budget
/// (capped at `max_percent`), and the window resets after `window` words.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowBudget {
    window: u32,
    base_percent: u32,
    max_percent: u32,
    used_percent: f64,
    seen: u32,
}

impl WindowBudget {
    /// Creates a budget of `base_percent`% average error per word over
    /// windows of `window` words. Individual words are capped at
    /// `4 × base_percent` (at most 100%).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero or `base_percent` is not in `1..=100`.
    pub fn new(window: u32, base_percent: u32) -> Self {
        assert!(window > 0, "window must hold at least one word");
        assert!(
            (1..=100).contains(&base_percent),
            "base percentage must be in 1..=100"
        );
        WindowBudget {
            window,
            base_percent,
            max_percent: (base_percent * 4).min(100),
            used_percent: 0.0,
            seen: 0,
        }
    }

    /// Words per window.
    pub fn window(&self) -> u32 {
        self.window
    }

    /// The configured average per-word error percentage.
    pub fn base_percent(&self) -> u32 {
        self.base_percent
    }

    /// The largest error any single word may incur, in percent:
    /// `4 × base_percent`, at most 100.
    pub fn max_percent(&self) -> u32 {
        self.max_percent
    }

    /// Remaining budget in the current window, in percentage points.
    pub fn remaining_percent(&self) -> f64 {
        (self.window as f64 * self.base_percent as f64) - self.used_percent
    }

    /// The error threshold available to the *next* word: the remaining
    /// budget (at least 0, at most the per-word cap). Returns
    /// [`ErrorThreshold::exact`] when the budget is exhausted.
    pub fn next_threshold(&self) -> ErrorThreshold {
        let avail = self.remaining_percent().floor();
        if avail < 1.0 {
            return ErrorThreshold::exact();
        }
        let pct = (avail as u32).min(self.max_percent);
        // pct is floored to >= 1 and clamped to max_percent; exact (no
        // approximation) is the conservative default if that ever broke.
        ErrorThreshold::from_percent(pct).unwrap_or_else(|_| ErrorThreshold::exact())
    }

    /// Records the relative error actually incurred by a word (`0.0` for an
    /// exact transmission) and advances the window.
    pub fn record(&mut self, relative_error: f64) {
        self.used_percent += (relative_error.max(0.0) * 100.0).min(self.max_percent as f64);
        self.seen += 1;
        if self.seen == self.window {
            self.seen = 0;
            self.used_percent = 0.0;
        }
    }

    /// Serializes the budget, cursor included, for a simulator snapshot.
    pub fn save_state(&self, w: &mut SnapWriter) {
        w.u32(self.window);
        w.u32(self.base_percent);
        w.f64_bits(self.used_percent);
        w.u32(self.seen);
    }

    /// Reads a budget written by [`save_state`](Self::save_state). A field
    /// [`new`](Self::new) would reject, or a cursor past the window, is a
    /// typed error rather than a panic.
    pub fn load_state(r: &mut SnapReader<'_>) -> Result<WindowBudget, SnapError> {
        let window = r.u32()?;
        let base_percent = r.u32()?;
        let used_percent = r.f64_bits()?;
        let seen = r.u32()?;
        if window == 0 || !(1..=100).contains(&base_percent) || seen >= window {
            return Err(SnapError::Invalid("window budget"));
        }
        Ok(WindowBudget {
            used_percent,
            seen,
            ..WindowBudget::new(window, base_percent)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_window_offers_pooled_budget() {
        let b = WindowBudget::new(8, 10);
        // 8 words x 10% = 80 points available, capped at 40% per word.
        assert_eq!(b.remaining_percent(), 80.0);
        assert_eq!(b.next_threshold().percent(), 40);
    }

    #[test]
    fn exact_words_donate_budget() {
        let mut b = WindowBudget::new(4, 10);
        b.record(0.0);
        b.record(0.0);
        // Two exact words: 40 points still available for the remaining two.
        assert_eq!(b.next_threshold().percent(), 40);
    }

    #[test]
    fn spending_shrinks_the_allowance() {
        let mut b = WindowBudget::new(4, 10);
        b.record(0.35); // 35 points of the 40 spent
        assert_eq!(b.next_threshold().percent(), 5);
        b.record(0.05);
        assert!(b.next_threshold().is_exact(), "budget exhausted");
    }

    #[test]
    fn window_resets() {
        let mut b = WindowBudget::new(2, 10);
        b.record(0.20);
        b.record(0.0); // window boundary
        assert_eq!(b.remaining_percent(), 20.0);
        assert_eq!(b.next_threshold().percent(), 20);
    }

    #[test]
    fn average_error_bounded_by_base() {
        // Property: however the budget is spent, the recorded average per
        // window never exceeds the base percentage.
        let mut b = WindowBudget::new(8, 10);
        let mut spent = 0.0;
        for i in 0..8 {
            let t = b.next_threshold();
            // Adversarially spend the full allowance every time.
            let e = t.percent() as f64 / 100.0;
            spent += e;
            b.record(e);
            let _ = i;
        }
        assert!(spent * 100.0 <= 8.0 * 10.0 + 1e-9, "spent {spent}");
    }

    #[test]
    #[should_panic(expected = "window must hold")]
    fn zero_window_rejected() {
        let _ = WindowBudget::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "base percentage")]
    fn bad_percent_rejected() {
        let _ = WindowBudget::new(4, 0);
    }

    #[test]
    fn state_round_trips_mid_window_and_rejects_bad_bytes() {
        let mut b = WindowBudget::new(8, 10);
        b.record(0.25);
        b.record(0.0);
        assert_eq!(b.max_percent(), 40);
        let mut w = SnapWriter::new();
        b.save_state(&mut w);
        let bytes = w.into_bytes();
        let back = WindowBudget::load_state(&mut SnapReader::new(&bytes)).expect("load");
        assert_eq!(back, b);
        for cut in 0..bytes.len() {
            assert_eq!(
                WindowBudget::load_state(&mut SnapReader::new(&bytes[..cut])),
                Err(SnapError::Truncated)
            );
        }
        // A cursor at the window's end cannot be saved by `record`.
        let mut bad = bytes.clone();
        bad[16..20].copy_from_slice(&8u32.to_le_bytes());
        assert!(WindowBudget::load_state(&mut SnapReader::new(&bad)).is_err());
        let mut bad = bytes;
        bad[4..8].copy_from_slice(&0u32.to_le_bytes());
        assert!(WindowBudget::load_state(&mut SnapReader::new(&bad)).is_err());
    }
}
