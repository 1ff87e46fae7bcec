//! Summary statistics and arrival schedules.
//!
//! Percentiles use the repository's nearest-rank definition
//! ([`mcbfs_query::nearest_rank_quantile`]) and are refused unless at least
//! [`MIN_BEYOND`] samples lie beyond them: a tail read from fewer samples
//! moves from run to run by more than any change worth detecting.

use mcbfs_query::nearest_rank_quantile;
use rand::rngs::SmallRng;
use rand::Rng;
use std::time::Duration;

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Samples strictly above the nearest-rank `q`-quantile's rank.
fn beyond(n: usize, q: f64) -> usize {
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    n.saturating_sub(rank)
}

/// The fewest samples for which the `q`-quantile may be reported.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| beyond(n, q) >= MIN_BEYOND).expect("finite")
}

/// The nearest-rank `q`-quantile, or an error naming `what` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64, what: &str) -> Result<f64, String> {
    let n = samples.len();
    if beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "{what}: p{} needs {} samples, the run produced {n}",
            q * 100.0,
            min_samples(q)
        ));
    }
    Ok(nearest_rank_quantile(samples, q))
}

/// Median of repeated measurements of one quantity (set-ups, passes over
/// one root); not a latency percentile, so no sample minimum applies.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank_quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Send offsets of `n` open-loop requests arriving at `rate` per second,
/// drawn before the phase starts. The gaps are the `n` stratified quantiles
/// of the exponential distribution (the gaps of a Poisson process) in an
/// order drawn from `rng`: every seed gets the same number of close
/// arrivals, so how many requests collide in a wave — which sets the
/// latency tail — does not change with the seed.
pub fn poisson_offsets(rng: &mut SmallRng, rate: f64, n: usize) -> Vec<Duration> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate)
        .collect();
    for i in (1..n).rev() {
        gaps.swap(i, rng.gen_range(0..=i));
    }
    let mut at = 0.0f64;
    gaps.into_iter()
        .map(|gap| {
            at += gap;
            Duration::from_secs_f64(at)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn percentiles_need_ten_samples_beyond() {
        let ramp = |n: usize| (1..=n).map(|x| x as f64).collect::<Vec<_>>();
        assert_eq!(min_samples(0.9), 100);
        assert_eq!(min_samples(0.5), 20);
        assert_eq!(min_samples(0.99), 1000);
        assert!(percentile(&ramp(99), 0.9, "x").is_err());
        assert_eq!(percentile(&ramp(100), 0.9, "x"), Ok(90.0));
        assert!(percentile(&ramp(19), 0.5, "x").is_err());
        assert_eq!(percentile(&ramp(20), 0.5, "x"), Ok(10.0));
        assert!(percentile(&ramp(999), 0.99, "x").is_err());
    }

    #[test]
    fn schedule_is_a_function_of_the_seed_at_the_given_rate() {
        let draw = |seed| poisson_offsets(&mut SmallRng::seed_from_u64(seed), 50.0, 4000);
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let offsets = draw(3);
        assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        let rate = offsets.len() as f64 / offsets.last().unwrap().as_secs_f64();
        assert!((rate - 50.0).abs() < 1.0, "achieved rate {rate}");
        // Every seed gets the same gaps, only in another order.
        let gaps = |offsets: Vec<Duration>| {
            let mut g: Vec<f64> = offsets
                .windows(2)
                .map(|w| (w[1] - w[0]).as_secs_f64())
                .collect();
            g.push(offsets[0].as_secs_f64());
            g.sort_by(|a, b| a.partial_cmp(b).unwrap());
            g
        };
        let (a, b) = (gaps(draw(3)), gaps(draw(4)));
        assert!(a.iter().zip(&b).all(|(x, y)| (x - y).abs() < 1e-6));
        // About 1 - e^(-50 * 0.002) = 9.5% of the gaps are under 2 ms.
        let close = a.iter().filter(|&&g| g < 0.002).count();
        assert!((370..=390).contains(&close), "{close} close arrivals");
    }
}
