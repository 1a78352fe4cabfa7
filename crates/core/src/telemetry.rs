//! Host-side scheduler telemetry: per-victim steal counters, ULI
//! round-trip latency histograms, and `has_stolen_child` elision counts.
//! Task lifecycle events are not kept here: the runtime records each one
//! once on its core's flight log (`FlightKind::Task`), and
//! [`TaskRun::task_events`](crate::TaskRun) is the view
//! `bigtiny_engine::task_events` derives from the logs' histories.
//!
//! Everything in this module is pure host-side bookkeeping. Recording
//! never sequences an operation, never charges a cycle, and only reads
//! clocks the simulation already computed (`port.now()`), so telemetry is
//! bit-for-bit invisible to simulated results — the golden-trace pins in
//! `tests/tests/golden_trace.rs` hold it to that.

/// A fixed-bucket log2 latency histogram: bucket `i` counts values in
/// `[2^i, 2^(i+1))`, with bucket 0 covering `{0, 1}` and the last bucket
/// open-ended. The bucket layout is part of the metrics schema, so it
/// never changes with the data.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Log2Histogram {
    buckets: [u64; Self::NUM_BUCKETS],
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram { buckets: [0; Self::NUM_BUCKETS], count: 0, sum: 0, max: 0 }
    }
}

impl Log2Histogram {
    /// Number of buckets. 32 covers latencies up to `2^31` cycles before
    /// the open-ended last bucket — far beyond any simulated round trip.
    pub const NUM_BUCKETS: usize = 32;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket a value lands in.
    fn bucket_of(v: u64) -> usize {
        if v < 2 {
            0
        } else {
            ((63 - v.leading_zeros()) as usize).min(Self::NUM_BUCKETS - 1)
        }
    }

    /// Records one value. The running sum saturates at `u64::MAX` rather
    /// than wrapping, so `mean` degrades gracefully (reads low) if a
    /// caller ever records astronomically large values.
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.max = self.max.max(v);
    }

    /// Per-bucket counts, in bucket order.
    pub fn buckets(&self) -> &[u64; Self::NUM_BUCKETS] {
        &self.buckets
    }

    /// Inclusive lower bound of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1 << i
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded values; 0.0 when empty (never NaN).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `p`-th percentile (`p` in `[0, 100]`) by rank-walking
    /// the buckets and interpolating linearly inside the target bucket
    /// (between its lower bound and its upper bound, clamped to the
    /// recorded maximum). Resolution is therefore the bucket width — exact
    /// for the bucket, approximate within it. Returns 0 when empty.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= rank {
                let lo = Self::bucket_lo(i);
                let hi =
                    if i + 1 < Self::NUM_BUCKETS { Self::bucket_lo(i + 1) - 1 } else { self.max };
                let hi = hi.min(self.max).max(lo);
                let frac = (rank - seen) as f64 / c as f64;
                // The f64 round-trip of a huge `hi - lo` can land above the
                // true width (f64 has 53 mantissa bits); clamp so `lo + off`
                // can never overflow past `hi`.
                let off = (((hi - lo) as f64 * frac).round() as u64).min(hi - lo);
                return lo + off;
            }
            seen += c;
        }
        self.max
    }

    /// Median estimate (see [`Log2Histogram::percentile`]).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 90th-percentile estimate (see [`Log2Histogram::percentile`]).
    pub fn p90(&self) -> u64 {
        self.percentile(90.0)
    }

    /// 99th-percentile estimate (see [`Log2Histogram::percentile`]).
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

/// Steal-attempt outcomes against one victim, summed over all thieves.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct VictimCounters {
    /// Steal attempts directed at this victim (lock-and-look, or a ULI
    /// request issued / forced to miss before any traffic).
    pub attempts: u64,
    /// Attempts that came back with a task.
    pub hits: u64,
    /// Attempts that came back empty (including NACKs, timeouts, and
    /// fault-forced misses).
    pub misses: u64,
}

/// Scheduler telemetry for one run, collected host-side while the
/// simulation executes and reported through
/// [`TaskRun::telemetry`](crate::TaskRun).
///
/// Under an armed fault plan, a timed-out steal whose response arrives
/// late is counted as both a miss (at the timeout) and a hit (at the late
/// claim), so `hits + misses` can slightly exceed `attempts`. A DTS steal
/// abandoned because the program completed while the thief awaited its
/// response resolves as neither (at most one per worker). Without faults,
/// those completion-race attempts are the only imbalance.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct StealTelemetry {
    /// Per-victim steal outcomes, indexed by victim core id.
    pub per_victim: Vec<VictimCounters>,
    /// ULI steal round-trip latency (request send to response receipt on
    /// the thief), DTS only.
    pub uli_rtt: Log2Histogram,
    /// `has_stolen_child` elisions: joins and completions that skipped the
    /// conservative AMO/invalidate protocol because no child was stolen
    /// (Section IV-C of the paper).
    pub hsc_elisions: u64,
    /// Completed `wait()` joins.
    pub joins: u64,
}

impl StealTelemetry {
    /// An empty telemetry record for `workers` cores.
    pub fn new(workers: usize) -> Self {
        StealTelemetry { per_victim: vec![VictimCounters::default(); workers], ..Self::default() }
    }

    /// Total steal attempts across victims.
    pub fn total_attempts(&self) -> u64 {
        self.per_victim.iter().map(|v| v.attempts).sum()
    }

    /// Total steal hits across victims.
    pub fn total_hits(&self) -> u64 {
        self.per_victim.iter().map(|v| v.hits).sum()
    }

    /// Total steal misses across victims.
    pub fn total_misses(&self) -> u64 {
        self.per_victim.iter().map(|v| v.misses).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log2_buckets_cover_powers_of_two() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 0);
        assert_eq!(Log2Histogram::bucket_of(2), 1);
        assert_eq!(Log2Histogram::bucket_of(3), 1);
        assert_eq!(Log2Histogram::bucket_of(4), 2);
        assert_eq!(Log2Histogram::bucket_of(1023), 9);
        assert_eq!(Log2Histogram::bucket_of(1024), 10);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), Log2Histogram::NUM_BUCKETS - 1);
    }

    #[test]
    fn histogram_stats_track_records() {
        let mut h = Log2Histogram::new();
        assert_eq!(h.mean(), 0.0, "empty histogram must not be NaN");
        h.record(4);
        h.record(8);
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 12);
        assert_eq!(h.max(), 8);
        assert_eq!(h.mean(), 6.0);
        assert_eq!(h.buckets()[2], 1);
        assert_eq!(h.buckets()[3], 1);
    }

    #[test]
    fn histogram_merge_adds_everything() {
        let mut a = Log2Histogram::new();
        a.record(2);
        let mut b = Log2Histogram::new();
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), 102);
        assert_eq!(a.max(), 100);
    }

    #[test]
    fn bucket_bounds_are_schema_stable() {
        assert_eq!(Log2Histogram::bucket_lo(0), 0);
        assert_eq!(Log2Histogram::bucket_lo(1), 2);
        assert_eq!(Log2Histogram::bucket_lo(5), 32);
    }

    #[test]
    fn percentiles_empty_and_single() {
        let h = Log2Histogram::new();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        // `percentile` on an empty histogram is 0 for every `p`, including
        // the extremes and out-of-range values (which clamp): rank-walking
        // zero buckets must short-circuit, never divide by the zero count.
        for p in [0.0, 50.0, 100.0, -3.0, 250.0] {
            assert_eq!(h.percentile(p), 0, "empty histogram at p={p}");
        }
        // A single value is exact at every percentile: the interpolation
        // upper bound clamps to the recorded max.
        let mut h = Log2Histogram::new();
        h.record(100);
        assert_eq!(h.p50(), 100);
        assert_eq!(h.p90(), 100);
        assert_eq!(h.p99(), 100);
    }

    #[test]
    fn percentiles_are_monotone_and_bounded() {
        let mut h = Log2Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (p50, p90, p99) = (h.p50(), h.p90(), h.p99());
        assert!(p50 <= p90 && p90 <= p99 && p99 <= h.max(), "{p50} {p90} {p99}");
        // Bucket-resolution accuracy: the true percentiles are 500/900/990,
        // so the estimates must land in the same power-of-two bucket.
        assert_eq!(Log2Histogram::bucket_of(p50), Log2Histogram::bucket_of(500));
        assert_eq!(Log2Histogram::bucket_of(p90), Log2Histogram::bucket_of(900));
        assert_eq!(Log2Histogram::bucket_of(p99), Log2Histogram::bucket_of(990));
    }

    #[test]
    fn percentiles_pick_heavy_tail() {
        // 99 fast values and one slow outlier: p50 stays in the fast
        // bucket, p99 crosses into the outlier's reach.
        let mut h = Log2Histogram::new();
        for _ in 0..99 {
            h.record(8);
        }
        h.record(100_000);
        assert!(h.p50() < 16, "{}", h.p50());
        assert!(h.percentile(100.0) == 100_000, "{}", h.percentile(100.0));
    }

    #[test]
    fn percentile_extreme_p_values_clamp() {
        let mut h = Log2Histogram::new();
        for v in [3, 5, 9] {
            h.record(v);
        }
        // p=0 clamps to the first recorded value's bucket floor; p=100 is
        // the max; out-of-range inputs clamp rather than misbehave.
        assert_eq!(h.percentile(0.0), h.percentile(-5.0));
        assert_eq!(h.percentile(100.0), 9);
        assert_eq!(h.percentile(250.0), 9);
        assert!(h.percentile(0.0) <= h.percentile(100.0));
    }

    #[test]
    fn percentile_bucket_zero_holds_both_zero_and_one() {
        // Bucket 0 covers {0, 1}: all-zeros must report 0, not 1.
        let mut h = Log2Histogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        assert_eq!(h.p50(), 0);
        assert_eq!(h.percentile(100.0), 0);
        // A mix interpolates within the bucket but never exceeds the max.
        let mut h = Log2Histogram::new();
        h.record(0);
        h.record(1);
        assert!(h.p50() <= 1);
        assert_eq!(h.percentile(100.0), 1);
    }

    #[test]
    fn percentile_open_ended_last_bucket_does_not_overflow() {
        // The last bucket is open-ended (everything >= 2^31 lands there);
        // interpolation against a near-u64::MAX max must clamp instead of
        // wrapping to a tiny value.
        let mut h = Log2Histogram::new();
        h.record(1u64 << 31);
        h.record(u64::MAX);
        let p99 = h.p99();
        assert!(p99 >= 1u64 << 31, "interpolated percentile wrapped: {p99}");
        assert_eq!(h.percentile(100.0), u64::MAX);
        // All-max histogram: estimates stay inside [bucket floor, max]
        // (bucket resolution means p50 interpolates mid-bucket, but it must
        // never wrap past the max).
        let mut h = Log2Histogram::new();
        for _ in 0..4 {
            h.record(u64::MAX);
        }
        assert!(h.p50() >= 1u64 << 31);
        assert_eq!(h.percentile(100.0), u64::MAX);
    }

    #[test]
    fn telemetry_totals_sum_victims() {
        let mut t = StealTelemetry::new(3);
        t.per_victim[1].attempts = 5;
        t.per_victim[1].hits = 3;
        t.per_victim[2].attempts = 2;
        t.per_victim[2].misses = 2;
        assert_eq!(t.total_attempts(), 7);
        assert_eq!(t.total_hits(), 3);
        assert_eq!(t.total_misses(), 2);
    }
}
