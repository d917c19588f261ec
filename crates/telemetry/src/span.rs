//! A switch for a span recorder that does not exist.

/// Does nothing. `met-benchmark`'s `main` is its one caller; it stays until
/// the facade of ROADMAP item 1 lets that caller go, and then this module
/// goes too.
pub fn set_enabled(_on: bool) {}
