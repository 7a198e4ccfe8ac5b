//! The telemetry clock: monotone nanoseconds since a process-wide epoch.

use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the process-wide epoch (first call wins).
pub fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = *EPOCH.get_or_init(Instant::now);
    Instant::now().duration_since(epoch).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_ns_is_monotone() {
        let a = monotonic_ns();
        let b = monotonic_ns();
        assert!(b >= a);
    }
}
