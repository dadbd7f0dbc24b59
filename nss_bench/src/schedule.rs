//! The query schedules of the serve workloads.
//!
//! Every query is a pure function of `(seed, client, index)`: the index is
//! hashed with SplitMix64 (the workspace's own seed whitener), mapped
//! through a Zipf CDF to a popularity rank, and the rank to a density. The
//! metric cycles through the four §4.1 metrics by index. No state is
//! carried between calls, so a client may be replayed from any index and
//! two hosts send the same queries.

use nss_model::rng::splitmix64;

/// The four §4.1 metrics with the constraint each query carries.
pub const METRICS: [(&str, f64); 4] = [
    ("reach-at-latency", 5.0),
    ("latency-for-reach", 0.6),
    ("broadcasts-for-reach", 0.6),
    ("reach-under-budget", 35.0),
];

/// Zipf exponent of both serve workloads.
pub const ZIPF_S: f64 = 1.1;

/// Stream tag that keeps the rank shuffle apart from the client streams.
const SHUFFLE_STREAM: u64 = 0x5348_5546; // "SHUF"

/// One optimal-p query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Query {
    /// Node density.
    pub rho: f64,
    /// Metric name (`/v1/optimal-p?metric=`).
    pub metric: &'static str,
    /// The metric's constraint.
    pub constraint: f64,
}

impl Query {
    /// The `GET /v1/optimal-p` query string (without the leading `?`).
    pub fn query_string(&self) -> String {
        format!(
            "rho={}&metric={}&constraint={}",
            self.rho, self.metric, self.constraint
        )
    }

    /// The query as one element of a `POST /v1/batch` body.
    pub fn json(&self) -> String {
        format!(
            "{{\"rho\":{},\"metric\":\"{}\",\"constraint\":{}}}",
            self.rho, self.metric, self.constraint
        )
    }
}

/// SplitMix64 of `(seed, stream, index)`; the same mixing as the
/// repository's `bench_serve` schedule.
pub fn mix(seed: u64, stream: u64, index: u64) -> u64 {
    let mut state = seed ^ (stream << 40) ^ index;
    splitmix64(&mut state)
}

/// A uniform draw in [0, 1) from the top 53 bits of a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Zipf(s) cumulative weights over ranks 1..=n, normalized to [0, 1].
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let mut acc = 0.0;
    let mut cdf: Vec<f64> = (1..=n)
        .map(|k| {
            acc += (k as f64).powf(-s);
            acc
        })
        .collect();
    for w in &mut cdf {
        *w /= acc;
    }
    cdf
}

/// A Zipf-over-densities query schedule.
#[derive(Debug, Clone)]
pub struct Schedule {
    seed: u64,
    /// Densities by popularity rank (rank 0 is the most popular).
    by_rank: Vec<f64>,
    cdf: Vec<f64>,
}

impl Schedule {
    /// Densities `rhos` ranked in the given order.
    pub fn ranked(seed: u64, by_rank: Vec<f64>) -> Schedule {
        let cdf = zipf_cdf(by_rank.len(), ZIPF_S);
        Schedule { seed, by_rank, cdf }
    }

    /// Densities `rhos` ranked in an order shuffled by the seed
    /// (Fisher–Yates over [`mix`]).
    pub fn shuffled(seed: u64, mut rhos: Vec<f64>) -> Schedule {
        for i in (1..rhos.len()).rev() {
            let j = (mix(seed, SHUFFLE_STREAM, i as u64) % (i as u64 + 1)) as usize;
            rhos.swap(i, j);
        }
        Schedule::ranked(seed, rhos)
    }

    /// Every density the schedule can ask for, by rank.
    pub fn rhos(&self) -> &[f64] {
        &self.by_rank
    }

    /// Query `index` of `client`.
    pub fn query(&self, client: usize, index: u64) -> Query {
        let u = unit(mix(self.seed, client as u64, index));
        let rank = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.by_rank.len() - 1);
        let (metric, constraint) = METRICS[(index % METRICS.len() as u64) as usize];
        Query {
            rho: self.by_rank[rank],
            metric,
            constraint,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid(n: usize) -> Vec<f64> {
        (0..n).map(|k| 20.0 + k as f64 / 16.0).collect()
    }

    #[test]
    fn schedule_is_a_pure_function_of_seed_client_index() {
        let a = Schedule::shuffled(7, grid(2048));
        let b = Schedule::shuffled(7, grid(2048));
        // Any call order gives the same queries: no hidden state.
        let forward: Vec<Query> = (0..500).map(|i| a.query(1, i)).collect();
        let backward: Vec<Query> = (0..500).rev().map(|i| b.query(1, i)).collect();
        assert!(forward.iter().eq(backward.iter().rev()));
        assert_eq!(a.query(0, 123_456), b.query(0, 123_456));
        // Each coordinate matters.
        let other_seed = Schedule::shuffled(8, grid(2048));
        assert!((0..64).any(|i| a.query(0, i) != other_seed.query(0, i)));
        assert!((0..64).any(|i| a.query(0, i) != a.query(1, i)));
        assert_ne!(a.rhos(), other_seed.rhos());
    }

    #[test]
    fn metric_cycles_and_rho_stays_on_the_grid() {
        let s = Schedule::ranked(1, grid(64));
        for i in 0..256 {
            let q = s.query(0, i);
            assert_eq!(q.metric, METRICS[(i % 4) as usize].0);
            assert!(s.rhos().contains(&q.rho));
        }
    }

    #[test]
    fn zipf_favors_low_ranks() {
        let cdf = zipf_cdf(64, ZIPF_S);
        assert!((cdf[63] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        let s = Schedule::ranked(3, grid(64));
        let top = (0..10_000)
            .filter(|&i| s.query(0, i).rho == s.rhos()[0])
            .count();
        // Rank 1 carries 1/H(64, 1.1) ≈ 0.25 of the mass.
        assert!((2_300..2_700).contains(&top), "{top}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let s = Schedule::shuffled(11, grid(2048));
        let mut v = s.rhos().to_vec();
        v.sort_by(f64::total_cmp);
        assert_eq!(v, grid(2048));
    }

    #[test]
    fn query_strings_round_trip_the_density_bits() {
        let q = Query {
            rho: 20.0 + 3.0 / 16.0,
            metric: "reach-at-latency",
            constraint: 5.0,
        };
        assert_eq!(
            q.query_string(),
            "rho=20.1875&metric=reach-at-latency&constraint=5"
        );
        assert_eq!(
            q.json(),
            "{\"rho\":20.1875,\"metric\":\"reach-at-latency\",\"constraint\":5}"
        );
    }
}
