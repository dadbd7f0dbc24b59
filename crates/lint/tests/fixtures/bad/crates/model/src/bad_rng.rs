//! Fixture: an `rng-discipline` violation — a literal seed outside a test.

pub fn raw_literal_seed() -> SmallRng {
    SmallRng::seed_from_u64(42) // raw literal seed outside a test
}
