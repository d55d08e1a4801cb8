//! Host-side figures: process CPU time, peak resident set, latency quantiles,
//! and the service-side counters read out of a `pwm-obs` registry.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, set_size: usize, set: *const u64) -> i32;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID`.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// CPU time of every thread of this process (user + system), so a REST
/// server thread's work counts; nanosecond resolution, so one run can be
/// timed on its own.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields on the
    // 64-bit Linux targets this benchmark builds for) for the whole call,
    // and the clock id is a valid Linux clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Pin the calling thread, and every thread it spawns afterwards, to the CPU
/// it is running on.
pub fn pin_to_current_cpu() -> std::io::Result<()> {
    // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler state.
    let cpu = unsafe { sched_getcpu() };
    let cpu = usize::try_from(cpu).map_err(|_| std::io::Error::last_os_error())?;
    // A `cpu_set_t`: 1024 bits.
    let mut set = [0u64; 16];
    *set.get_mut(cpu / 64)
        .ok_or_else(|| std::io::Error::other("cpu index past cpu_set_t"))? |= 1 << (cpu % 64);
    // SAFETY: `set` is a live 128-byte `cpu_set_t` for the whole call, its
    // size is passed alongside, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&set), set.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Peak resident set of this process in megabytes (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Median of `samples` (linear interpolation between ranks).
pub fn median(samples: &[f64]) -> f64 {
    pwm_sim::percentile(samples, 0.5)
}

/// Mean of `samples` (0 for none).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Sub-buckets per power of two of [`LatencyHistogram`]: values below 256 ns
/// are exact, larger ones fall in buckets at most 1/256 (0.4%) wide.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB as usize;

/// Policy-call latencies in fixed memory, so the benchmark's own footprint
/// (and so `peak_rss_mb`) does not grow with the number of calls a faster
/// program fits into a run.
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(ns: u64) -> usize {
        if ns < SUB {
            return ns as usize;
        }
        let msb = 63 - ns.leading_zeros() as u64;
        let shift = msb - SUB_BITS as u64;
        ((shift + 1) * SUB + ((ns >> shift) & (SUB - 1))) as usize
    }

    /// `[lower, upper)` nanoseconds of bucket `i`.
    fn bounds(i: usize) -> (f64, f64) {
        let i = i as u64;
        if i < SUB {
            return (i as f64, (i + 1) as f64);
        }
        let width = 2f64.powi((i / SUB - 1) as i32);
        let lower = (SUB + i % SUB) as f64 * width;
        (lower, lower + width)
    }

    /// Record one latency.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.total += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q` quantile in nanoseconds, interpolated by rank inside its
    /// bucket (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = q.clamp(0.0, 1.0) * (self.total - 1) as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 > rank {
                let (lo, hi) = Self::bounds(i);
                return lo + (hi - lo) * (rank - below as f64 + 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank lies below the total count")
    }
}

/// Service-side totals summed over every series of their metric family.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceCounters {
    /// `pwm_policy_advice_latency_micros` sum: time inside the service.
    pub advice_micros: f64,
    /// `pwm_rules_eval_nanos_total`: time inside rule matchers.
    pub rules_eval_nanos: f64,
    /// `pwm_rules_evaluations_total`.
    pub rules_evaluations: f64,
    /// `pwm_rules_firings_total`.
    pub rules_firings: f64,
    /// `pwm_rest_event_loop_wakeups_total`.
    pub rest_wakeups: f64,
    /// `pwm_rest_requests_total`.
    pub rest_requests: f64,
    /// `pwm_rest_batched_requests_total`.
    pub rest_batched: f64,
}

impl ServiceCounters {
    /// Parse a Prometheus text exposition.
    pub fn from_prometheus(text: &str) -> ServiceCounters {
        let mut c = ServiceCounters::default();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let name = series.split('{').next().unwrap_or(series);
            let slot = match name {
                "pwm_policy_advice_latency_micros_sum" => &mut c.advice_micros,
                "pwm_rules_eval_nanos_total" => &mut c.rules_eval_nanos,
                "pwm_rules_evaluations_total" => &mut c.rules_evaluations,
                "pwm_rules_firings_total" => &mut c.rules_firings,
                "pwm_rest_event_loop_wakeups_total" => &mut c.rest_wakeups,
                "pwm_rest_requests_total" => &mut c.rest_requests,
                "pwm_rest_batched_requests_total" => &mut c.rest_batched,
                _ => continue,
            };
            *slot += value.parse::<f64>().expect("numeric Prometheus sample");
        }
        c
    }

    /// Counter growth from `before` to `self`.
    pub fn since(&self, before: &ServiceCounters) -> ServiceCounters {
        ServiceCounters {
            advice_micros: self.advice_micros - before.advice_micros,
            rules_eval_nanos: self.rules_eval_nanos - before.rules_eval_nanos,
            rules_evaluations: self.rules_evaluations - before.rules_evaluations,
            rules_firings: self.rules_firings - before.rules_firings,
            rest_wakeups: self.rest_wakeups - before.rest_wakeups,
            rest_requests: self.rest_requests - before.rest_requests,
            rest_batched: self.rest_batched - before.rest_batched,
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, other: &ServiceCounters) {
        self.advice_micros += other.advice_micros;
        self.rules_eval_nanos += other.rules_eval_nanos;
        self.rules_evaluations += other.rules_evaluations;
        self.rules_firings += other.rules_firings;
        self.rest_wakeups += other.rest_wakeups;
        self.rest_requests += other.rest_requests;
        self.rest_batched += other.rest_batched;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_every_series_of_a_family() {
        let text = "# HELP pwm_rules_firings_total x\n\
                    # TYPE pwm_rules_firings_total counter\n\
                    pwm_rules_firings_total{rule=\"a\",session=\"default\"} 3\n\
                    pwm_rules_firings_total{rule=\"b\",session=\"default\"} 4\n\
                    pwm_policy_advice_latency_micros_bucket{kind=\"t\",le=\"8\"} 9\n\
                    pwm_policy_advice_latency_micros_sum{kind=\"t\"} 70\n\
                    pwm_rest_requests_total 5\n";
        let c = ServiceCounters::from_prometheus(text);
        assert_eq!(c.rules_firings, 7.0);
        assert_eq!(c.advice_micros, 70.0);
        assert_eq!(c.rest_requests, 5.0);
        assert_eq!(c.since(&c), ServiceCounters::default());
    }

    #[test]
    fn histogram_quantiles_stay_within_a_bucket() {
        let mut h = LatencyHistogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        for ns in 1..=100_000u64 {
            h.record(ns);
        }
        assert_eq!(h.len(), 100_000);
        for q in [0.001, 0.5, 0.99] {
            let exact = 1.0 + q * 99_999.0;
            let got = h.quantile(q);
            assert!(
                (got - exact).abs() <= exact / 256.0 + 1.0,
                "q{q}: {got} vs {exact}"
            );
        }
        for i in [0, 255, 256, 1000, BUCKETS - 1] {
            let (lo, hi) = LatencyHistogram::bounds(i);
            assert_eq!(LatencyHistogram::index(lo as u64), i);
            assert_eq!(LatencyHistogram::index(hi as u64 - 1), i);
        }
    }

    #[test]
    fn host_figures_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let before = process_cpu();
        let spin = std::time::Instant::now();
        while spin.elapsed() < Duration::from_millis(20) {}
        assert!(process_cpu() > before);
    }
}
