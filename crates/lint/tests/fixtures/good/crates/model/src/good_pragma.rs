//! Fixture: a well-formed pragma suppressing a real violation — the escape
//! hatch working as designed, with a written reason.

pub fn deliberate_fixed_seed() -> SmallRng {
    // nss-lint: allow(rng-discipline) — fixture: a fixed golden seed is the point here
    SmallRng::seed_from_u64(7)
}
