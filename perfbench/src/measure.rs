//! Small measurement helpers: order statistics, host-speed calibration,
//! a seeded permutation, a content hash for reply checks, and the
//! process's peak memory.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median of a sample (the mean of the two middle values for an
/// even count). `NaN` for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The smallest value of a sample; `NaN` for an empty sample.
pub fn minimum(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(f64::NAN)
}

/// Keys the reference work puts in its map: enough that, like the
/// workloads' own data, they do not fit in a core's caches.
const REFERENCE_KEYS: usize = 120_000;
/// The reference work's time on an uncontended host of the kind the
/// benchmark was written on (2.1 GHz Xeon): the speed normalized
/// latencies are expressed at.
pub const REFERENCE_NOMINAL_MS: f64 = 80.0;

/// A fixed piece of allocation-heavy work, independent of the program
/// under test: build an ordered map of formatted keys, join the keys into
/// one string, free it all. Returns how long it took.
pub fn reference_work() -> Duration {
    let start = Instant::now();
    let mut map = BTreeMap::new();
    for i in 0..REFERENCE_KEYS {
        let key = format!("view_{:08}_col_{}", (i * 7919) % REFERENCE_KEYS, i % 13);
        map.insert(key, vec![i; 4]);
    }
    let joined = map.keys().map(String::as_str).collect::<Vec<_>>().join(",");
    black_box((joined, map));
    start.elapsed()
}

/// Host-speed calibration of a run's ops.
///
/// On a shared host, other tenants' memory traffic slows every
/// memory-bound op, the program's and the reference work's alike, by up
/// to a third for seconds to minutes at a time: a run's raw median moves
/// between runs of the same code by more than a regression bound can
/// allow. The reference work runs before the first op and after each
/// op, so each op is bracketed by two; the op's normalized latency is its
/// latency times `REFERENCE_NOMINAL_MS` over the mean of the two. The
/// reference is the benchmark's own code, so a change to the program
/// moves the normalized latency as much as the raw one.
#[derive(Default)]
pub struct Calibration {
    /// Milliseconds of each reference run, in order.
    pub refs: Vec<f64>,
}

impl Calibration {
    /// Run the reference work once.
    pub fn tick(&mut self) {
        self.refs.push(ms(reference_work()));
    }

    /// Seconds spent in the reference work.
    pub fn seconds(&self) -> f64 {
        self.refs.iter().sum::<f64>() / 1e3
    }

    /// Normalized latencies of `ops`, where op `i` ran between reference
    /// runs `i` and `i + 1`.
    pub fn normalize(&self, ops: &[f64]) -> Vec<f64> {
        ops.iter()
            .zip(self.refs.windows(2))
            .map(|(op, pair)| op * REFERENCE_NOMINAL_MS * 2.0 / (pair[0] + pair[1]))
            .collect()
    }
}

/// A tail latency: the highest whole percentile (50..=99) that still has
/// at least ten samples above its nearest-rank position, with the sample
/// count it was taken from. Below twenty samples it falls back to p50.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: u32,
    pub samples: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = |p: u32| (p as usize * n).div_ceil(100).max(1);
    let percentile = (50..=99).rev().find(|&p| n >= rank(p) + 10).unwrap_or(50);
    let value = if n == 0 { f64::NAN } else { sorted[rank(percentile) - 1] };
    Tail { value, percentile, samples: n }
}

/// The growth exponent `k` in `t ∝ n^k` between two input sizes: for
/// `n` and `n/2` it is `log2(t(n) / t(n/2))`.
pub fn growth(t_full: f64, t_half: f64, size_ratio: f64) -> f64 {
    (t_full / t_half).ln() / size_ratio.ln()
}

/// FNV-1a over bytes: a cheap fingerprint for comparing large replies
/// against expected answers after the clock has stopped.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

/// A seeded permutation of `0..n` whose every prefix spreads evenly over
/// `0..n`: a golden-ratio stride (made coprime with `n`) from a seeded
/// start. Applied to a sorted list, any run's first few thousand picks
/// sample the whole list alike, whatever the seed, which keeps the mix
/// of cheap and costly picks — and so the tail latency — steady.
pub fn spread_order(n: usize, seed: u64) -> Vec<usize> {
    if n == 0 {
        return Vec::new();
    }
    let mut stride = ((n as f64 * 0.618_033_988_75) as usize).max(1);
    while gcd(stride, n) != 1 {
        stride += 1;
    }
    let start = splitmix64(seed) as usize % n;
    (0..n).map(|i| (start + i * stride) % n).collect()
}

fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// glibc's `struct mallinfo2`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// The heap bytes this process's live allocations hold, in MiB: glibc's
/// in-use bytes over all arenas plus its mmapped blocks.
pub fn live_heap_mb() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments and returns a plain struct
    // by value; glibc has provided it since 2.33.
    let info = unsafe { mallinfo2() };
    (info.uordblks + info.hblkhd) as f64 / (1024.0 * 1024.0)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn normalization_scales_by_the_bracketing_references() {
        let calibration = Calibration {
            refs: vec![REFERENCE_NOMINAL_MS, 3.0 * REFERENCE_NOMINAL_MS, REFERENCE_NOMINAL_MS],
        };
        assert_eq!(calibration.normalize(&[10.0, 20.0]), vec![5.0, 10.0]);
        // An op without a reference after it is not normalized.
        assert_eq!(calibration.normalize(&[10.0, 20.0, 30.0]).len(), 2);
    }

    #[test]
    fn minimum_of_a_sample() {
        assert_eq!(minimum(&[3.0, 1.0, 2.0]), 1.0);
        assert!(minimum(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!((t.percentile, t.value, t.samples), (90, 90.0, 100));
        let few: Vec<f64> = (1..=15).map(f64::from).collect();
        assert_eq!(tail(&few).percentile, 50);
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&thousand).percentile, 99);
    }

    #[test]
    fn spread_order_is_a_seeded_permutation() {
        for n in [1, 50, 64, 1000] {
            let mut order = spread_order(n, 7);
            assert_eq!(order, spread_order(n, 7));
            order.sort_unstable();
            assert_eq!(order, (0..n).collect::<Vec<_>>());
        }
        assert_ne!(spread_order(50, 7), spread_order(50, 8));
        // Any prefix of 100 picks out of 1000 covers every tenth of the range.
        let prefix = &spread_order(1000, 3)[..100];
        for decile in 0..10 {
            assert!(prefix.iter().any(|&i| i / 100 == decile));
        }
    }
}
