//! Fixture: `rng-discipline`-clean RNG use — every generator is seeded
//! through the labeled stream-derivation path.

pub fn labeled_stream(master: u64, rep: u64) -> SmallRng {
    SmallRng::seed_from_u64(derive_seed(master, Stream::Misc, rep))
}

pub fn via_factory(factory: &SeedFactory, rep: u64) -> u64 {
    factory.seed(Stream::Protocol, rep)
}

#[cfg(test)]
mod tests {
    #[test]
    fn literal_seeds_are_fine_in_tests() {
        let _ = SmallRng::seed_from_u64(7);
    }
}
