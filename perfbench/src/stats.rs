//! Order statistics for the benchmark's reports.
//!
//! Every timing is reported as a median plus a tail: the highest
//! percentile that still has at least [`TAIL_BEYOND`] samples above it,
//! printed with its `p` and sample count `n`.  Both are Harrell–Davis
//! estimates ([`hd_quantile`]): a weighted mean of all order statistics
//! rather than a single one, so a quantile that falls in the gap between
//! two clusters of cells (the replay grid's per-cell times are
//! multi-modal) does not jump from one cluster to the other when one
//! sample crosses it.  Latency streams long
//! enough to hold several windows are cut into fixed-size windows in
//! arrival order; each window yields one tail and the run reports the
//! median window tail, which a single slow phase of the host cannot move.
//! Repeated rounds over the same cells reduce to each cell's fastest
//! round ([`per_cell_minima`]): interference from other tenants of the
//! host only ever slows a cell down, so the fastest of several rounds
//! spread over the run is the cell's own cost, as long as one of them
//! caught a quiet moment.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The median of `xs` (mean of the middle pair for an even count), or
/// `None` when `xs` is empty.
#[must_use]
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The Harrell–Davis estimate of quantile `q` (in `[0, 1]`) of `xs`, or
/// `None` when `xs` is empty.  Order statistic `i` of `n` is weighted by
/// the probability that the `q`-quantile of a sample of `n` lies in
/// `((i-1)/n, i/n]`; that Beta(`q(n+1)`, `(1-q)(n+1)`) distribution is
/// taken in its normal approximation (same mean and variance).
#[must_use]
pub fn hd_quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let sd = (q * (1.0 - q) / (n + 2.0)).sqrt();
    if sd == 0.0 {
        return Some(if q < 0.5 { v[0] } else { v[v.len() - 1] });
    }
    let cdf = |x: f64| 0.5 * (1.0 + erf((x - q) / (sd * std::f64::consts::SQRT_2)));
    let mass = cdf(1.0) - cdf(0.0);
    let sum: f64 = v
        .iter()
        .enumerate()
        .map(|(i, x)| (cdf((i + 1) as f64 / n) - cdf(i as f64 / n)) * x)
        .sum();
    Some(sum / mass)
}

/// The error function (Abramowitz & Stegun 7.1.26, |error| < 1.5e-7).
fn erf(x: f64) -> f64 {
    let t = 1.0 / (1.0 + 0.327_591_1 * x.abs());
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let y = 1.0 - poly * (-x * x).exp();
    if x < 0.0 {
        -y
    } else {
        y
    }
}

/// A tail latency with the percentile it sits at and the sample count it
/// was taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The tail estimate.
    pub value: f64,
    /// The percentile of that rank, in `(0, 100)`.
    pub p: f64,
    /// Samples the tail was taken from (per window when windowed).
    pub n: usize,
    /// Windows whose tails were reduced to their median (1 when not
    /// windowed).
    pub windows: usize,
}

/// The highest percentile of `xs` with at least [`TAIL_BEYOND`] samples
/// beyond it, `p = 100 (n - TAIL_BEYOND) / n`, estimated by
/// [`hd_quantile`]; `None` with too few samples to have one.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let q = (n - TAIL_BEYOND) as f64 / n as f64;
    Some(Tail {
        value: hd_quantile(xs, q)?,
        p: 100.0 * q,
        n,
        windows: 1,
    })
}

/// The median of the [`tail`]s of consecutive `window`-sized chunks of
/// `xs` (in arrival order; a short final chunk is dropped).  With fewer
/// than two full windows this is the plain [`tail`] of all of `xs`.
#[must_use]
pub fn windowed_tail(xs: &[f64], window: usize) -> Option<Tail> {
    let windows = if window > TAIL_BEYOND {
        xs.len() / window
    } else {
        0
    };
    if windows < 2 {
        return tail(xs);
    }
    let tails: Vec<Tail> = xs
        .chunks_exact(window)
        .map(|c| tail(c).expect("a window holds more than TAIL_BEYOND samples"))
        .collect();
    let value = median(&tails.iter().map(|t| t.value).collect::<Vec<_>>())?;
    Some(Tail {
        value,
        p: tails[0].p,
        n: window,
        windows,
    })
}

/// Per-cell minima over repeated rounds: `rounds[r][c]` is cell `c`'s
/// sample in round `r`.  Rounds may be ragged (a run stopped mid-round);
/// a cell's minimum covers every round that reached it.
#[must_use]
pub fn per_cell_minima(rounds: &[Vec<f64>]) -> Vec<f64> {
    let cells = rounds.iter().map(Vec::len).max().unwrap_or(0);
    (0..cells)
        .map(|c| {
            rounds
                .iter()
                .filter_map(|r| r.get(c).copied())
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    fn close(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn hd_quantile_tracks_the_order_statistics() {
        assert_eq!(hd_quantile(&[], 0.5), None);
        assert!(close(
            hd_quantile(&[7.0; 9], 0.5).expect("samples"),
            7.0,
            1e-9
        ));
        let xs: Vec<f64> = (0..101).rev().map(f64::from).collect();
        assert!(close(hd_quantile(&xs, 0.5).expect("samples"), 50.0, 1e-6));
        assert!(close(hd_quantile(&xs, 0.9).expect("samples"), 90.0, 0.6));
        assert!(hd_quantile(&xs, 0.25) < hd_quantile(&xs, 0.75));
        assert_eq!(hd_quantile(&xs, 1.0), Some(100.0));
        assert!(close(erf(0.5), 0.520_499_877_8, 2e-7));
        assert!(close(erf(-1.0), -0.842_700_792_9, 2e-7));
    }

    #[test]
    fn hd_median_moves_smoothly_across_a_gap() {
        // Two clusters with the median between them: moving one sample
        // from the low cluster to the high one makes the plain median
        // jump the whole gap, but moves the estimate only a little.
        let low: Vec<f64> = (0..50).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        let high: Vec<f64> = (0..50).map(|i| 30.0 + f64::from(i) * 0.01).collect();
        let before = [low.clone(), high.clone()].concat();
        let mut after = before.clone();
        after[0] = 29.0;
        let jump = median(&after).expect("samples") - median(&before).expect("samples");
        let hd = hd_quantile(&after, 0.5).expect("samples")
            - hd_quantile(&before, 0.5).expect("samples");
        assert!(jump > 9.0);
        assert!(hd > 0.0 && hd < jump / 4.0, "hd moved {hd}, median {jump}");
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_and_reports_p_and_n() {
        assert_eq!(tail(&[1.0; 10]), None);
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&xs).expect("100 samples have a tail");
        assert!(close(t.value, 90.0, 0.6), "{}", t.value);
        assert_eq!((t.n, t.windows), (100, 1));
        assert!(close(t.p, 90.0, 1e-12));
        assert!(tail(&[0.0; 11]).is_some_and(|t| close(t.p, 100.0 / 11.0, 1e-12)));
    }

    #[test]
    fn windowed_tail_takes_the_median_window() {
        // Three windows of 20 (tails near 10, 1010 and 110): one slow
        // window does not move the reported tail.
        let mut xs = Vec::new();
        for base in [0.0, 1000.0, 100.0] {
            xs.extend((0..20).map(|i| base + f64::from(i)));
        }
        let t = windowed_tail(&xs, 20).expect("three windows");
        assert!(close(t.value, 109.5, 1.0), "{}", t.value);
        assert_eq!((t.n, t.windows), (20, 3));
        assert!(close(t.p, 50.0, 1e-12));
        // One full window (or a window too small for a tail) falls back
        // to the plain tail.
        assert_eq!(windowed_tail(&xs[..30], 20), tail(&xs[..30]));
        assert_eq!(windowed_tail(&xs, 5), tail(&xs));
    }

    #[test]
    fn per_cell_minima_reduce_rounds_and_accept_ragged_rounds() {
        let rounds = vec![vec![1.0, 10.0, 7.0], vec![9.0, 2.0, 8.0], vec![3.0, 4.0]];
        assert_eq!(per_cell_minima(&rounds), vec![1.0, 2.0, 7.0]);
        assert!(per_cell_minima(&[]).is_empty());
    }
}
