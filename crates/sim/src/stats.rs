//! Measurement output of simulation runs.

/// Results of a steady-state synthetic-traffic run.
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticStats {
    /// Offered load as a fraction of injection bandwidth.
    pub offered_load: f64,
    /// Accepted throughput: delivered payload per node per unit time,
    /// as a fraction of link bandwidth, measured after warm-up.
    pub throughput: f64,
    /// Mean end-to-end packet delay (generation → full delivery) in ns,
    /// over packets delivered after warm-up.
    pub avg_delay_ns: f64,
    /// Maximum observed packet delay in ns.
    pub max_delay_ns: u64,
    /// Packets delivered inside the measurement window.
    pub delivered_packets: u64,
    /// Packets delivered indirectly (Valiant/UGAL divert decisions).
    pub indirect_packets: u64,
    /// Mean router-to-router hops per delivered packet.
    pub avg_hops: f64,
    /// Approximate 99th-percentile packet delay in ns (log-bucket upper
    /// bound).
    pub p99_delay_ns: u64,
    /// Utilization of the busiest router-to-router link (fraction of
    /// link bandwidth over the measurement window).
    pub max_link_utilization: f64,
    /// Packets lost to failures: unroutable at the source after the
    /// injector's retries ran out, or dropped in-network because their
    /// route crossed a link that failed mid-run. Always 0 on a pristine
    /// network with no fault schedule.
    pub dropped_packets: u64,
    /// Packets that were eventually injected after at least one
    /// unroutable-destination retry at the source.
    pub retried_packets: u64,
    /// True if the network wedged (no event progress with packets
    /// in flight) — a routing deadlock.
    pub deadlocked: bool,
    /// True if the run was aborted by its [`crate::RunBudget`] before
    /// reaching the horizon; the other fields hold the measurements
    /// accumulated up to the abort. Always `false` under the default
    /// (unlimited) budget.
    pub exhausted: bool,
}

impl SyntheticStats {
    /// A placeholder for a load point that was skipped because a lower
    /// load already wedged the network: all measurements zero,
    /// `deadlocked` set. Used by [`crate::sweep()`]'s early-abort
    /// path.
    pub fn deadlocked_stub(load: f64) -> Self {
        SyntheticStats {
            offered_load: load,
            throughput: 0.0,
            avg_delay_ns: 0.0,
            max_delay_ns: 0,
            delivered_packets: 0,
            indirect_packets: 0,
            avg_hops: 0.0,
            p99_delay_ns: 0,
            max_link_utilization: 0.0,
            dropped_packets: 0,
            retried_packets: 0,
            deadlocked: true,
            exhausted: false,
        }
    }

    /// A placeholder for a sweep point that could not be simulated at
    /// all because its configuration was rejected (preflight failure,
    /// inconsistent parameters): all measurements zero, `deadlocked`
    /// set so downstream consumers treat the point as unusable. The
    /// accompanying [`crate::SweepNotice`] carries the reason.
    pub fn rejected_stub(load: f64) -> Self {
        Self::deadlocked_stub(load)
    }

    /// A placeholder for a sweep point whose simulation panicked and was
    /// isolated by `catch_unwind` rather than killing the process: all
    /// measurements zero, `deadlocked` set so downstream consumers treat
    /// the point as unusable. The accompanying [`crate::SweepNotice`]
    /// (code `"panicked"`) carries the panic message.
    pub fn panicked_stub(load: f64) -> Self {
        Self::deadlocked_stub(load)
    }
}

/// Results of a fixed-size exchange run (A2A / NN).
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeStats {
    /// Total payload bytes delivered.
    pub delivered_bytes: u64,
    /// Completion time in ns (first injection to last delivery).
    pub completion_ns: u64,
    /// Effective throughput per node as a fraction of link bandwidth
    /// (paper §4.4: total data / completion time, normalized per node).
    pub effective_throughput: f64,
    /// Mean in-network packet delay (injection → full delivery) in ns.
    pub avg_delay_ns: f64,
    /// Approximate 99th-percentile packet delay in ns (log-bucket upper
    /// bound).
    pub p99_delay_ns: u64,
    /// Packets delivered in total.
    pub delivered_packets: u64,
    /// Packets routed indirectly.
    pub indirect_packets: u64,
    /// True if the exchange wedged before completing.
    pub deadlocked: bool,
}

/// A logarithmic latency histogram: bucket `i` covers delays in
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 additionally catches < 1 ns).
/// Good to ~±50 % per sample, which is ample for p50/p99 quantile
/// *estimates* on curves spanning two orders of magnitude.
#[derive(Debug, Clone)]
pub struct DelayHistogram {
    buckets: [u64; 40],
    total: u64,
}

impl Default for DelayHistogram {
    fn default() -> Self {
        DelayHistogram {
            buckets: [0; 40],
            total: 0,
        }
    }
}

impl DelayHistogram {
    pub fn record(&mut self, delay_ps: u64) {
        // Sub-nanosecond delays (ns = 0) clamp into bucket 0 alongside
        // exact 1 ns samples rather than indexing on leading_zeros(0).
        let ns = (delay_ps / 1_000).max(1);
        let idx = (63 - ns.leading_zeros() as usize).min(39);
        self.buckets[idx] += 1;
        self.total += 1;
    }

    /// Upper bound (in ns) of the bucket containing quantile `q` ∈ [0, 1].
    pub fn quantile_ns(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        // Clamp the rank into [1, total]: q = 0.0 means the first sample
        // (not "before any bucket", which would report bucket 0 even when
        // it is empty), and float round-up at q = 1.0 must not run off
        // the end.
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64 << (i + 1);
            }
        }
        1u64 << 40
    }

    pub fn samples(&self) -> u64 {
        self.total
    }

    /// Folds another histogram in (bucket-wise sums) — shards record
    /// disjoint delivery sets, so the merged histogram equals the one a
    /// serial run would have built.
    pub(crate) fn absorb(&mut self, other: &DelayHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += *b;
        }
        self.total += other.total;
    }
}

/// Internal accumulator shared by both run modes.
#[derive(Debug, Default, Clone)]
pub(crate) struct Accumulator {
    pub delivered_packets: u64,
    pub delivered_bytes: u64,
    pub delay_sum_ps: u128,
    pub max_delay_ps: u64,
    pub indirect_packets: u64,
    pub hops_sum: u64,
    pub first_delivery_ps: Option<u64>,
    pub last_delivery_ps: u64,
    pub histogram: DelayHistogram,
}

impl Accumulator {
    pub fn record(&mut self, delay_ps: u64, bytes: u32, indirect: bool, hops: u32, now_ps: u64) {
        self.delivered_packets += 1;
        self.delivered_bytes += bytes as u64;
        self.delay_sum_ps += delay_ps as u128;
        self.max_delay_ps = self.max_delay_ps.max(delay_ps);
        if indirect {
            self.indirect_packets += 1;
        }
        self.hops_sum += hops as u64;
        if self.first_delivery_ps.is_none() {
            self.first_delivery_ps = Some(now_ps);
        }
        self.last_delivery_ps = now_ps;
        self.histogram.record(delay_ps);
    }

    pub fn avg_delay_ns(&self) -> f64 {
        if self.delivered_packets == 0 {
            return 0.0;
        }
        self.delay_sum_ps as f64 / self.delivered_packets as f64 / 1_000.0
    }

    pub fn avg_hops(&self) -> f64 {
        if self.delivered_packets == 0 {
            return 0.0;
        }
        self.hops_sum as f64 / self.delivered_packets as f64
    }

    /// Folds another accumulator in: sums for the counters, min/max for
    /// the first/last delivery marks. Exact (all-integer), so a sharded
    /// run's merged accumulator is identical to the serial one.
    pub(crate) fn absorb(&mut self, other: &Accumulator) {
        self.delivered_packets += other.delivered_packets;
        self.delivered_bytes += other.delivered_bytes;
        self.delay_sum_ps += other.delay_sum_ps;
        self.max_delay_ps = self.max_delay_ps.max(other.max_delay_ps);
        self.indirect_packets += other.indirect_packets;
        self.hops_sum += other.hops_sum;
        self.first_delivery_ps = match (self.first_delivery_ps, other.first_delivery_ps) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.last_delivery_ps = self.last_delivery_ps.max(other.last_delivery_ps);
        self.histogram.absorb(&other.histogram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = DelayHistogram::default();
        // 99 samples at ~1 us, 1 at ~100 us.
        for _ in 0..99 {
            h.record(1_000_000);
        }
        h.record(100_000_000);
        assert_eq!(h.samples(), 100);
        let p50 = h.quantile_ns(0.5);
        assert!((1_000..=2_048).contains(&p50), "p50 {p50}");
        let p995 = h.quantile_ns(0.995);
        assert!(p995 >= 100_000, "p99.5 {p995} should catch the outlier");
    }

    #[test]
    fn empty_histogram() {
        let h = DelayHistogram::default();
        assert_eq!(h.quantile_ns(0.0), 0);
        assert_eq!(h.quantile_ns(0.99), 0);
        assert_eq!(h.quantile_ns(1.0), 0);
    }

    #[test]
    fn single_sample_all_quantiles_agree() {
        let mut h = DelayHistogram::default();
        h.record(1_500_000); // 1500 ns → bucket [1024, 2048)
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_ns(q), 2_048, "q={q}");
        }
    }

    #[test]
    fn sub_nanosecond_sample_lands_in_bucket_zero() {
        let mut h = DelayHistogram::default();
        h.record(999); // < 1 ns
        h.record(0);
        assert_eq!(h.samples(), 2);
        assert_eq!(h.quantile_ns(1.0), 2); // bucket 0 upper bound
    }

    #[test]
    fn quantile_zero_skips_empty_low_buckets() {
        let mut h = DelayHistogram::default();
        // Only sample is big; q = 0.0 must find it, not report bucket 0.
        h.record(1_000_000_000); // 1e6 ns → bucket 19
        assert_eq!(h.quantile_ns(0.0), 1 << 20);
    }

    #[test]
    fn power_of_two_boundaries_split_buckets() {
        let mut h = DelayHistogram::default();
        h.record(1_023_000); // 1023 ns → bucket 9, bound 1024
        h.record(1_024_000); // 1024 ns → bucket 10, bound 2048
        assert_eq!(h.quantile_ns(0.5), 1_024);
        assert_eq!(h.quantile_ns(1.0), 2_048);
    }

    #[test]
    fn deadlocked_stub_is_inert() {
        let s = SyntheticStats::deadlocked_stub(0.8);
        assert!(s.deadlocked);
        assert_eq!(s.offered_load, 0.8);
        assert_eq!(s.throughput, 0.0);
        assert_eq!(s.delivered_packets, 0);
    }

    #[test]
    fn accumulator_averages() {
        let mut a = Accumulator::default();
        a.record(1_000_000, 256, false, 2, 10);
        a.record(3_000_000, 256, true, 4, 20);
        assert_eq!(a.avg_delay_ns(), 2_000.0);
        assert_eq!(a.avg_hops(), 3.0);
        assert_eq!(a.indirect_packets, 1);
        assert_eq!(a.first_delivery_ps, Some(10));
        assert_eq!(a.last_delivery_ps, 20);
    }
}
