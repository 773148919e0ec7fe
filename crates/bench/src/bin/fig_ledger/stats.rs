//! Order statistics, the sustained-rate rule and the backlog test the
//! ledger reports with.
//!
//! A tail is quoted only where the sample supports it: a percentile counts
//! when at least [`MIN_BEYOND`] samples lie above its rank. (A "p99" of 100
//! samples has one sample beyond it and is just the maximum.)

/// Samples that must lie beyond a quoted percentile.
pub const MIN_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for even counts); `None` when empty.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The nearest-rank `p`-th percentile, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (rank >= 1 && n - rank.min(n) >= MIN_BEYOND).then(|| v[rank - 1])
}

/// Samples per window of [`windowed_percentile`]: the fewest that support
/// a p99 with [`MIN_BEYOND`] samples beyond it.
pub const WINDOW: usize = 1000;

/// The median, over consecutive windows of at least [`WINDOW`] samples
/// taken in the given (time) order, of each window's `p`-th percentile.
///
/// On a shared two-core machine one scheduling stall of ~20 ms delays some
/// thirty requests in a row, enough to own the p99 of a whole rung; here it
/// lifts only the window it falls in. `None` when no window supports the
/// percentile.
pub fn windowed_percentile(samples: &[f64], p: f64) -> Option<f64> {
    let n = samples.len();
    let windows = n / WINDOW;
    let tails = (0..windows)
        .map(|i| percentile(&samples[i * n / windows..(i + 1) * n / windows], p))
        .collect::<Option<Vec<f64>>>()?;
    median(&tails)
}

/// One rung of a rate ladder, as measured.
#[derive(Debug, Clone, Copy)]
pub struct Rung {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// The rung's p99 latency, `None` when the sample cannot support one.
    pub p99: Option<f64>,
    /// Ran to the end with no failures and no growing lateness.
    pub steady: bool,
}

impl Rung {
    fn meets(&self, limit: f64) -> bool {
        self.steady && self.p99.is_some_and(|p| p <= limit)
    }
}

/// The highest rate meeting `limit` on p99 with no growing backlog,
/// interpolated linearly in p99 between the last rung that meets it and
/// the first that does not. Rungs must be in ascending rate order.
///
/// * Every rung meets the limit: the top rate (the ladder cannot see
///   further).
/// * The first failing rung missed only on backlog (its p99 is within the
///   limit): the last passing rate.
/// * The first rung already fails: its rate scaled by `limit / p99`.
pub fn sustained_rate(rungs: &[Rung], limit: f64) -> f64 {
    let Some(fail) = rungs.iter().position(|r| !r.meets(limit)) else {
        return rungs.last().map_or(0.0, |r| r.rate);
    };
    let over = rungs[fail];
    let over_p99 = over.p99.unwrap_or(f64::INFINITY);
    if fail == 0 {
        return over.rate * (limit / over_p99).min(1.0);
    }
    let under = rungs[fail - 1];
    let under_p99 = under.p99.unwrap_or(0.0);
    if over_p99 <= limit || !over_p99.is_finite() {
        return under.rate;
    }
    let frac = ((limit - under_p99) / (over_p99 - under_p99)).clamp(0.0, 1.0);
    under.rate + frac * (over.rate - under.rate)
}

/// Whether a generator fell further and further behind its schedule: the
/// median lateness of the last quarter of requests (by due time) exceeds
/// that of the first quarter by more than `tolerance`. `samples` are
/// `(due, lateness)` pairs in any order; fewer than 8 never count as
/// growing.
pub fn lateness_grows(samples: &[(f64, f64)], tolerance: f64) -> bool {
    if samples.len() < 8 {
        return false;
    }
    let mut by_due = samples.to_vec();
    by_due.sort_by(|a, b| a.0.total_cmp(&b.0));
    let quarter = by_due.len() / 4;
    let late = |part: &[(f64, f64)]| median(&part.iter().map(|s| s.1).collect::<Vec<_>>());
    let first = late(&by_due[..quarter]).unwrap_or(0.0);
    let last = late(&by_due[by_due.len() - quarter..]).unwrap_or(0.0);
    last - first > tolerance
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // At n = 100 the p99 rank has one sample beyond it: not a p99.
        assert_eq!(percentile(&ramp(100), 99.0), None);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // At n = 1000 the rank is 990 with exactly ten beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&ramp(2000), 50.0), Some(1000.0));
    }

    #[test]
    fn one_stall_does_not_own_the_windowed_p99() {
        // 5000 fast requests; a stall delays 60 in a row in the second
        // window. The plain p99 is the stall, the windowed one is not.
        let mut v = vec![1.0; 5000];
        v[1500..1560].fill(20.0);
        assert_eq!(percentile(&v, 99.0), Some(20.0));
        assert_eq!(windowed_percentile(&v, 99.0), Some(1.0));
        // Below one window there is no p99; at exactly one it is the plain one.
        assert_eq!(windowed_percentile(&ramp(999), 99.0), None);
        assert_eq!(windowed_percentile(&ramp(1000), 99.0), Some(990.0));
        // 2999 samples make two windows, 1..=1499 and 1500..=2999, whose
        // medians are 750 and 2249.
        assert_eq!(windowed_percentile(&ramp(2999), 50.0), Some(1499.5));
    }

    fn rung(rate: f64, p99: f64, steady: bool) -> Rung {
        Rung {
            rate,
            p99: Some(p99),
            steady,
        }
    }

    #[test]
    fn sustained_rate_interpolates_across_the_limit() {
        let rungs = [
            rung(100.0, 1.0, true),
            rung(200.0, 1.5, true),
            rung(300.0, 3.5, true),
            rung(400.0, 50.0, false),
        ];
        // Limit 2.5 sits halfway between 1.5 (200/s) and 3.5 (300/s).
        assert!((sustained_rate(&rungs, 2.5) - 250.0).abs() < 1e-9);
        // Every rung within the limit: the ladder's top.
        let easy = [rung(100.0, 1.0, true), rung(200.0, 1.2, true)];
        assert_eq!(sustained_rate(&easy, 2.0), 200.0);
    }

    #[test]
    fn sustained_rate_handles_backlog_and_a_failing_first_rung() {
        // Rung two is within the limit but its backlog grows.
        let backlog = [rung(100.0, 1.0, true), rung(200.0, 1.9, false)];
        assert_eq!(sustained_rate(&backlog, 2.0), 100.0);
        // The first rung already misses: scaled down, never zero.
        let slow = [rung(100.0, 4.0, true), rung(200.0, 9.0, true)];
        assert_eq!(sustained_rate(&slow, 2.0), 50.0);
        // A rung with too few samples for a p99 does not meet the limit.
        let thin = [
            rung(100.0, 1.0, true),
            Rung {
                rate: 200.0,
                p99: None,
                steady: true,
            },
        ];
        assert_eq!(sustained_rate(&thin, 2.0), 100.0);
    }

    #[test]
    fn growing_lateness_is_a_rising_backlog_not_noise() {
        let rising: Vec<(f64, f64)> = (0..400).map(|i| (i as f64, i as f64 * 0.01)).collect();
        assert!(lateness_grows(&rising, 0.5));
        // Jitter around a constant offset, even a large one, is not growth.
        let flat: Vec<(f64, f64)> = (0..400)
            .map(|i| (i as f64, 2.0 + if i % 7 == 0 { 0.4 } else { 0.0 }))
            .collect();
        assert!(!lateness_grows(&flat, 0.5));
        assert!(!lateness_grows(&rising[..5], 0.0));
    }
}
