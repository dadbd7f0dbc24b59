//! Fixture: pragma misuse — a reason-less allow and a stale allow.

pub fn missing_reason() -> SmallRng {
    // nss-lint: allow(rng-discipline)
    SmallRng::seed_from_u64(42)
}

pub fn stale_allow(x: u32) -> u32 {
    // nss-lint: allow(rng-discipline) — nothing on the next line seeds an RNG
    x + 1
}
