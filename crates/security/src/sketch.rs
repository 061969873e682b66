//! Duplicate-insensitive synopses for robust in-network aggregation.
//!
//! Redundancy (§4.1.2) sends the same partial aggregate along several
//! aggregation paths so that a single malicious or failed aggregator cannot
//! suppress it.  Plain partial sums cannot be combined that way — a datum
//! that survives on two paths would be counted twice — which is why the
//! paper points to the *duplicate-insensitive summarization* line of work
//! (Considine et al., Synopsis Diffusion, Bawa et al.).  The standard tool
//! is a Flajolet–Martin (FM) sketch: inserting the same item twice sets the
//! same bit, and merging two sketches is a bitwise OR, so any combination of
//! re-transmission, multi-path forwarding and re-aggregation yields the same
//! synopsis and therefore the same estimate.
//!
//! Two synopses are provided:
//!
//! * [`CountSketch`] — estimates the number of *distinct* items inserted
//!   (the COUNT aggregate when every source inserts a unique identifier).
//! * [`SumSketch`] — estimates a sum of non-negative integer values by
//!   inserting `value` logical sub-items per datum (with the usual
//!   logarithmic-trick expansion so large values stay cheap).
//!
//! Accuracy follows the classic FM analysis: with `m` independent sketch
//! maps the standard error is roughly `0.78 / sqrt(m)`.

/// A deterministic 64-bit mixer (SplitMix64 finalizer) used as the sketch
/// hash.  Stable across platforms and runs — required for reproducible
/// experiments and for sketches built on different nodes to be mergeable.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Position of the lowest set bit (ρ in the FM literature), capped at 63.
fn rho(hash: u64) -> u32 {
    if hash == 0 {
        63
    } else {
        hash.trailing_zeros().min(63)
    }
}

/// Flajolet–Martin distinct-count sketch with `m` independent bitmaps.
///
/// Inserting the same item any number of times, on any number of nodes, and
/// merging the resulting sketches in any order always produces the same
/// bitmaps — the duplicate-insensitivity property that makes multi-path
/// aggregation safe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountSketch {
    maps: Vec<u64>,
}

/// Correction factor φ ≈ 0.77351 from the FM analysis.
const FM_PHI: f64 = 0.773_51;

impl CountSketch {
    /// Create a sketch with `maps` independent bitmaps (more maps → lower
    /// variance; 64 is a reasonable default).
    pub fn new(maps: usize) -> Self {
        CountSketch {
            maps: vec![0u64; maps.max(1)],
        }
    }

    /// Insert an item identified by `item` (e.g. a source node identifier or
    /// a tuple uniquifier).  Re-inserting the same identifier is a no-op in
    /// terms of the final estimate.
    pub fn insert(&mut self, item: u64) {
        for (i, map) in self.maps.iter_mut().enumerate() {
            let h = mix64(item ^ mix64(i as u64 + 1));
            *map |= 1u64 << rho(h);
        }
    }

    /// Merge another sketch into this one (bitwise OR).  Panics if the two
    /// sketches have different widths — they would not be comparable.
    pub fn merge(&mut self, other: &CountSketch) {
        assert_eq!(
            self.maps.len(),
            other.maps.len(),
            "cannot merge sketches of different widths"
        );
        for (a, b) in self.maps.iter_mut().zip(&other.maps) {
            *a |= *b;
        }
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.maps.iter().all(|m| *m == 0)
    }

    /// Estimate the number of distinct items inserted.
    pub fn estimate(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        // Mean position of the lowest unset bit over all maps.
        let mean_r: f64 = self
            .maps
            .iter()
            .map(|m| (!m).trailing_zeros() as f64)
            .sum::<f64>()
            / self.maps.len() as f64;
        2f64.powf(mean_r) / FM_PHI
    }

    /// Wire size of the sketch in bytes (what travels up the tree).
    pub fn size_bytes(&self) -> usize {
        self.maps.len() * 8
    }
}

/// Duplicate-insensitive sum sketch for non-negative integer values.
///
/// A datum `(id, value)` is expanded into `value` logical sub-items derived
/// from `id`, so the distinct-count of sub-items equals the sum.  To keep
/// insertion cost logarithmic in `value` the expansion inserts whole
/// power-of-two blocks via a block identifier; the estimate inherits the FM
/// error bounds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SumSketch {
    sketch: CountSketch,
    /// Sub-item granularity: values are counted in units of `scale`.
    scale: u64,
}

impl SumSketch {
    /// Create a sum sketch with `maps` bitmaps counting in units of `scale`
    /// (e.g. `scale = 1` counts exact units; larger scales trade resolution
    /// for insertion cost on very large values).
    pub fn new(maps: usize, scale: u64) -> Self {
        SumSketch {
            sketch: CountSketch::new(maps),
            scale: scale.max(1),
        }
    }

    /// The unit in which values are counted.
    pub fn scale(&self) -> u64 {
        self.scale
    }

    /// Add `value` attributed to the datum `id`.  Re-adding the same
    /// `(id, value)` pair (a duplicate delivery along a second path) does not
    /// change the estimate; adding the same `id` with a larger value only
    /// contributes the extra units, which mirrors the semantics of synopsis
    /// diffusion.
    ///
    /// Insertion cost is `O(value / scale)`; choose a coarser `scale` when
    /// individual values are very large.
    pub fn add(&mut self, id: u64, value: u64) {
        let units = value / self.scale;
        for unit in 0..units {
            self.sketch
                .insert(mix64(id) ^ mix64(unit.wrapping_add(0x51ab_51ab)));
        }
    }

    /// Merge another sum sketch (bitwise OR of the underlying bitmaps).
    pub fn merge(&mut self, other: &SumSketch) {
        assert_eq!(
            self.scale, other.scale,
            "cannot merge sketches of different scales"
        );
        self.sketch.merge(&other.sketch);
    }

    /// Estimate the sum.
    pub fn estimate(&self) -> f64 {
        self.sketch.estimate() * self.scale as f64
    }

    /// True when nothing has been added.
    pub fn is_empty(&self) -> bool {
        self.sketch.is_empty()
    }

    /// Wire size in bytes.
    pub fn size_bytes(&self) -> usize {
        self.sketch.size_bytes() + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_sketch_estimates_within_expected_error() {
        let mut s = CountSketch::new(64);
        let n = 5_000u64;
        for i in 0..n {
            s.insert(i);
        }
        let est = s.estimate();
        let err = (est - n as f64).abs() / n as f64;
        assert!(err < 0.35, "estimate {est} for n={n}, relative error {err}");
    }

    #[test]
    fn count_sketch_is_duplicate_insensitive() {
        let mut once = CountSketch::new(32);
        let mut thrice = CountSketch::new(32);
        for i in 0..500u64 {
            once.insert(i);
            thrice.insert(i);
            thrice.insert(i);
            thrice.insert(i);
        }
        assert_eq!(once, thrice);
    }

    #[test]
    fn merge_is_commutative_and_idempotent() {
        let mut a = CountSketch::new(32);
        let mut b = CountSketch::new(32);
        for i in 0..300u64 {
            a.insert(i);
        }
        for i in 200..600u64 {
            b.insert(i);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut abb = ab.clone();
        abb.merge(&b);
        assert_eq!(
            ab, abb,
            "merging the same sketch again must not change anything"
        );
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merging_mismatched_widths_panics() {
        let mut a = CountSketch::new(16);
        let b = CountSketch::new(32);
        a.merge(&b);
    }

    #[test]
    fn empty_sketch_estimates_zero() {
        let s = CountSketch::new(16);
        assert!(s.is_empty());
        assert_eq!(s.estimate(), 0.0);
        assert_eq!(s.size_bytes(), 16 * 8);
    }

    #[test]
    fn sum_sketch_tracks_total_within_error() {
        let mut s = SumSketch::new(64, 1);
        let mut total = 0u64;
        for i in 0..200u64 {
            let v = (i % 13) + 1;
            s.add(i, v);
            total += v;
        }
        let est = s.estimate();
        let err = (est - total as f64).abs() / total as f64;
        assert!(
            err < 0.4,
            "estimate {est} for total {total}, relative error {err}"
        );
    }

    #[test]
    fn sum_sketch_duplicate_delivery_does_not_inflate() {
        let mut once = SumSketch::new(32, 1);
        let mut duplicated = SumSketch::new(32, 1);
        for i in 0..100u64 {
            once.add(i, 5);
            duplicated.add(i, 5);
            duplicated.add(i, 5);
        }
        assert_eq!(once, duplicated);
    }

    #[test]
    fn sum_sketch_merge_respects_scale() {
        let mut a = SumSketch::new(16, 10);
        let mut b = SumSketch::new(16, 10);
        a.add(1, 100);
        b.add(2, 200);
        a.merge(&b);
        assert!(a.estimate() > 0.0);
        assert_eq!(a.scale(), 10);
    }

    #[test]
    #[should_panic(expected = "different scales")]
    fn sum_sketch_scale_mismatch_panics() {
        let mut a = SumSketch::new(16, 1);
        let b = SumSketch::new(16, 2);
        a.merge(&b);
    }
}
