//! Power-of-two-bucketed histogram.

use crate::Json;

/// Number of buckets: bucket `i` (for `i > 0`) covers
/// `[2^(i-1), 2^i)`; bucket 0 holds the value 0 alone. `u64::MAX`
/// lands in bucket 64.
const BUCKETS: usize = 65;

/// A `u64` histogram with power-of-two buckets and exact
/// count/sum/min/max.
///
/// Recording is O(1) (a `leading_zeros` and three adds), so it is safe
/// on telemetry paths; memory is a fixed 65-slot array, so cloning a
/// telemetry-enabled `Simulator` stays cheap.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram { buckets: [0; BUCKETS], count: 0, sum: 0, min: u64::MAX, max: 0 }
    }
}

/// Bucket index of a value: 0 for 0, otherwise `64 - leading_zeros`
/// (so bucket `i` covers `[2^(i-1), 2^i)`).
fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum as f64 / self.count as f64
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower_bound, upper_bound_exclusive,
    /// count)`, in ascending value order. Bucket 0 is `(0, 1, n)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets.iter().enumerate().filter(|&(_, &n)| n > 0).map(|(i, &n)| {
            let (lo, hi) = match i {
                0 => (0, 1),
                64 => (1u64 << 63, u64::MAX),
                _ => (1u64 << (i - 1), 1u64 << i),
            };
            (lo, hi, n)
        })
    }

    /// JSON rendering: summary stats plus the non-empty buckets.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("count".into(), Json::U64(self.count)),
            ("sum".into(), Json::U64(self.sum)),
            ("min".into(), self.min().map_or(Json::Null, Json::U64)),
            ("max".into(), self.max().map_or(Json::Null, Json::U64)),
            ("mean".into(), Json::F64(self.mean())),
            (
                "buckets".into(),
                Json::Arr(
                    self.nonzero_buckets()
                        .map(|(lo, hi, n)| {
                            Json::Obj(vec![
                                ("lo".into(), Json::U64(lo)),
                                ("hi".into(), Json::U64(hi)),
                                ("count".into(), Json::U64(n)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_summarizes() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 3, 200] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 205);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(200));
        assert!((h.mean() - 41.0).abs() < 1e-12);
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        // 0 → [0,1); 1,1 → [1,2); 3 → [2,4); 200 → [128,256).
        assert_eq!(buckets, vec![(0, 1, 1), (1, 2, 2), (2, 4, 1), (128, 256, 1)]);
    }

    #[test]
    fn empty_histogram_is_well_defined() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Histogram::new();
        a.record(4);
        let mut b = Histogram::new();
        b.record(1000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(4));
        assert_eq!(a.max(), Some(1000));
    }

    #[test]
    fn extreme_values_do_not_panic() {
        let mut h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX);
        assert_eq!(h.sum(), u64::MAX, "sum saturates");
        assert_eq!(h.nonzero_buckets().count(), 1);
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(7);
        let j = h.to_json();
        assert_eq!(j.get("count").and_then(Json::as_u64), Some(1));
        assert_eq!(j.get("buckets").and_then(Json::as_arr).map(Vec::len), Some(1));
    }
}
