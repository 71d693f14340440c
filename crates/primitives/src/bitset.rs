//! Blocked-bitmap color tracking for the coloring hot loops.
//!
//! The greedy color pick inside [`crate::list_coloring`] and the
//! class sweep in [`crate::linial`] both ask the same
//! question per scheduled node: "mark the colors my neighbors hold,
//! then find the first unmarked one." Scanning a `Vec<bool>` (or worse,
//! `nbrs.contains` per palette entry) makes that `O(width)` branchy
//! byte work; packing the marks into `u64` blocks turns the scan into
//! one `trailing_ones` per 64 slots — the same blocked-bitmap trick
//! that bought 4.3x in the ACD friend-graph kernel (PR 4). In the
//! paper's constant-degree regime (`Δ ≤ 63`, arXiv:2504.03080) the
//! whole mask is one or two words and never touches the heap spill.

/// A reusable fixed-width bitset over color slots `0..width`.
///
/// The two-word inline array covers `width ≤ 128` — every instance the
/// Δ-coloring pipeline creates, since sweep widths are `Δ + 1` and
/// palettes are `deg + 1` — without heap allocation; wider masks spill
/// into a `Vec`. `reset` keeps the spill capacity, so a per-node loop
/// reusing one `ColorBitset` allocates at most once.
#[derive(Debug, Default)]
pub struct ColorBitset {
    inline: [u64; 2],
    spill: Vec<u64>,
    width: usize,
}

impl ColorBitset {
    /// An empty bitset of the given width (all slots unmarked).
    #[must_use]
    pub fn new(width: usize) -> Self {
        let mut s = ColorBitset::default();
        s.reset(width);
        s
    }

    /// Clears all marks and resizes to `width` slots.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.inline = [0, 0];
        self.spill.clear();
        if width > 128 {
            self.spill.resize(width.div_ceil(64) - 2, 0);
        }
    }

    /// Marks slot `idx`; out-of-range indices are ignored (callers mark
    /// neighbor colors, which may fall outside the block being swept).
    #[inline]
    pub fn mark(&mut self, idx: usize) {
        if idx >= self.width {
            return;
        }
        let (block, bit) = (idx / 64, idx % 64);
        if block < 2 {
            self.inline[block] |= 1 << bit;
        } else {
            self.spill[block - 2] |= 1 << bit;
        }
    }

    /// The smallest unmarked slot, or `None` if all `width` slots are
    /// marked. One `trailing_ones` per 64 slots — no per-slot branch.
    #[inline]
    #[must_use]
    pub fn first_clear(&self) -> Option<usize> {
        let blocks = self.inline.iter().chain(self.spill.iter());
        for (i, &word) in blocks.enumerate() {
            let t = word.trailing_ones() as usize;
            if t < 64 {
                let slot = i * 64 + t;
                return (slot < self.width).then_some(slot);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_first_free_slot() {
        let mut b = ColorBitset::new(5);
        assert_eq!(b.first_clear(), Some(0));
        b.mark(0);
        b.mark(1);
        b.mark(3);
        assert_eq!(b.first_clear(), Some(2));
        b.mark(2);
        assert_eq!(b.first_clear(), Some(4));
        b.mark(4);
        assert_eq!(b.first_clear(), None);
    }

    #[test]
    fn out_of_range_marks_are_ignored() {
        let mut b = ColorBitset::new(3);
        b.mark(3);
        b.mark(1000);
        assert_eq!(b.first_clear(), Some(0));
    }

    #[test]
    fn word_boundaries() {
        for width in [63, 64, 65, 127, 128, 129, 200] {
            let mut b = ColorBitset::new(width);
            for i in 0..width - 1 {
                b.mark(i);
            }
            assert_eq!(b.first_clear(), Some(width - 1), "width={width}");
            b.mark(width - 1);
            assert_eq!(b.first_clear(), None, "width={width}");
        }
    }

    #[test]
    fn reset_reuses_and_rewidths() {
        let mut b = ColorBitset::new(200);
        b.mark(199);
        b.reset(10);
        assert_eq!(b.first_clear(), Some(0));
        for i in 0..10 {
            b.mark(i);
        }
        assert_eq!(b.first_clear(), None);
        b.reset(70);
        b.mark(64);
        assert_eq!(b.first_clear(), Some(0));
    }

    #[test]
    fn matches_naive_scan() {
        // Cross-check against the Vec<bool> implementation it replaces.
        let widths = [1usize, 7, 64, 90, 130];
        for (wi, &width) in widths.iter().enumerate() {
            let mut b = ColorBitset::new(width);
            let mut naive = vec![false; width];
            // Deterministic pseudo-random marks.
            let mut x = 0x9e37_79b9_7f4a_7c15u64 ^ (wi as u64);
            for _ in 0..width * 2 / 3 + 1 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let idx = (x % (width as u64 * 2)) as usize;
                b.mark(idx);
                if idx < width {
                    naive[idx] = true;
                }
            }
            assert_eq!(
                b.first_clear(),
                naive.iter().position(|&t| !t),
                "width={width}"
            );
        }
    }
}
