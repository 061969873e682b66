//! Virtual time.
//!
//! The simulator and the rest of the system measure time in integer
//! microseconds since the start of the run.  Using a plain integer (rather
//! than `std::time::Instant`) is what lets the same node code run under the
//! discrete-event simulator and the physical runtime: the physical runtime
//! simply reports elapsed wall-clock microseconds through the same type.

/// A point in virtual time, in microseconds since the start of the run.
pub type SimTime = u64;

/// A span of virtual time, in microseconds.
pub type Duration = u64;

/// Number of microseconds in one millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;

/// Number of microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// Format a [`SimTime`] as fractional seconds for human-readable reports.
pub fn as_secs_f64(t: SimTime) -> f64 {
    t as f64 / MICROS_PER_SEC as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn as_secs_formats_fractions() {
        assert!((as_secs_f64(1_500_000) - 1.5).abs() < 1e-9);
        assert_eq!(as_secs_f64(0), 0.0);
    }
}
