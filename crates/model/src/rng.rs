//! Deterministic seed derivation for reproducible experiments.
//!
//! Every randomized component (deployment sampling, protocol coin flips,
//! slot jitter) receives an independent RNG derived from a single
//! experiment-level master seed via a SplitMix64 chain. Two goals:
//!
//! 1. **Replayability** — the same master seed reproduces the same network
//!    and the same protocol execution, regardless of thread scheduling.
//! 2. **Stream independence** — replication `i` and replication `j` share
//!    no RNG state, so replications can run on different threads without
//!    order effects.

/// SplitMix64 step. Small, fast, and passes BigCrush when used as a stream
/// generator; here it only whitens seed material.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a stream.
///
/// The stream partitions seed space by purpose (e.g. deployment vs protocol)
/// and by replication index, so adding a new consumer never perturbs the
/// streams of existing ones. Taking a [`Stream`] rather than a string means
/// every stream is a named variant: a typo is a compile error, not a silent
/// fork or collision.
pub fn derive_seed(master: u64, stream: Stream, index: u64) -> u64 {
    // FNV-1a-style over the stream's label, then two SplitMix64 whitening
    // steps mixing in the master seed and the index. The multiplier is
    // 2^44 + 0x1b3, not the FNV-64 prime 2^40 + 0x1b3 (0x100_0000_01b3);
    // every seed in the workspace, and so every recorded figure and trace
    // digest, depends on it, so it stays.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in stream.label().as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    let mut s = master ^ h.rotate_left(17);
    let _ = splitmix64(&mut s);
    s ^= index.wrapping_mul(0xA24B_AED4_963E_E407);
    splitmix64(&mut s)
}

/// Named RNG streams used by this workspace. Using an enum rather than raw
/// strings prevents typo-induced stream collisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stream {
    /// Node placement sampling.
    Deployment,
    /// Protocol-level coin flips (broadcast probability).
    Protocol,
    /// Slot-jitter selection.
    Jitter,
    /// Fault injection (link loss, node death) — see `nss_model::faults`.
    Faults,
    /// Density-probe rounds of the adaptive controller (`nss-sim`'s
    /// `probe` module).
    Probe,
    /// Anything else (tests, ad-hoc tools).
    Misc,
}

impl Stream {
    /// Stable string name of the stream (the seed-derivation input; also
    /// used by instrumentation to report which streams a run consumed).
    pub fn label(self) -> &'static str {
        match self {
            Stream::Deployment => "deployment",
            Stream::Protocol => "protocol",
            Stream::Jitter => "jitter",
            Stream::Faults => "faults",
            Stream::Probe => "probe",
            Stream::Misc => "misc",
        }
    }
}

/// Factory handing out independent child seeds for one experiment.
#[derive(Debug, Clone, Copy)]
pub struct SeedFactory {
    master: u64,
}

impl SeedFactory {
    /// Creates a factory for the given master seed.
    pub fn new(master: u64) -> Self {
        SeedFactory { master }
    }

    /// Seed for `stream` in replication `replication`.
    pub fn seed(&self, stream: Stream, replication: u64) -> u64 {
        derive_seed(self.master, stream, replication)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(
            derive_seed(42, Stream::Misc, 0),
            derive_seed(42, Stream::Misc, 0)
        );
        let f = SeedFactory::new(7);
        assert_eq!(f.seed(Stream::Protocol, 3), f.seed(Stream::Protocol, 3));
    }

    #[test]
    fn streams_distinct() {
        let f = SeedFactory::new(7);
        let a = f.seed(Stream::Deployment, 0);
        let b = f.seed(Stream::Protocol, 0);
        let c = f.seed(Stream::Jitter, 0);
        let d = f.seed(Stream::Faults, 0);
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(b, d);
        assert_ne!(c, d);
    }

    #[test]
    fn replications_distinct() {
        let f = SeedFactory::new(7);
        let seeds: Vec<u64> = (0..100).map(|i| f.seed(Stream::Protocol, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len(), "collision in 100 derived seeds");
    }

    #[test]
    fn masters_distinct() {
        let a = SeedFactory::new(1).seed(Stream::Misc, 0);
        let b = SeedFactory::new(2).seed(Stream::Misc, 0);
        assert_ne!(a, b);
    }

    #[test]
    fn splitmix_known_sequence_is_stable() {
        // Pin the whitening function: changing it would silently invalidate
        // every recorded experiment seed.
        let mut s = 0u64;
        let first = splitmix64(&mut s);
        let second = splitmix64(&mut s);
        assert_eq!(first, 0xE220_A839_7B1D_CDAF);
        assert_eq!(second, 0x6E78_9E6A_A1B9_65F4);
    }
}
