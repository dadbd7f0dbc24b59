//! Verbosity-gated console output.
//!
//! The experiment pipeline routes all of its ad-hoc progress `println!`s
//! through [`crate::status!`] / [`crate::status_err!`] so a single
//! [`set_verbosity`] call (the `repro --quiet` flag) silences them. This
//! layer is deliberately *not* feature-gated: controlling user-facing
//! output must work in uninstrumented builds too.

use std::sync::atomic::{AtomicU8, Ordering};

/// Suppress all status output.
pub const QUIET: u8 = 0;
/// Normal progress reporting (the default).
pub const NORMAL: u8 = 1;

static VERBOSITY: AtomicU8 = AtomicU8::new(NORMAL);

/// Sets the process-wide console verbosity.
pub fn set_verbosity(level: u8) {
    VERBOSITY.store(level, Ordering::Relaxed);
}

/// Current console verbosity.
pub fn verbosity() -> u8 {
    VERBOSITY.load(Ordering::Relaxed)
}

/// `println!` gated on [`console::verbosity`](verbosity) ≥ `NORMAL`.
#[macro_export]
macro_rules! status {
    ($($arg:tt)*) => {
        if $crate::console::verbosity() >= $crate::console::NORMAL {
            ::std::println!($($arg)*);
        }
    };
}

/// `eprintln!` gated on [`console::verbosity`](verbosity) ≥ `NORMAL`.
#[macro_export]
macro_rules! status_err {
    ($($arg:tt)*) => {
        if $crate::console::verbosity() >= $crate::console::NORMAL {
            ::std::eprintln!($($arg)*);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbosity_round_trips() {
        let before = verbosity();
        set_verbosity(QUIET);
        assert_eq!(verbosity(), QUIET);
        crate::status!("this line must not print under QUIET");
        set_verbosity(before);
    }
}
