//! The benchmark's one wall-clock source. Every timing in the benchmark
//! goes through [`now`], so the analyzer's `wall-clock` rule sees exactly
//! one annotated read.

use std::time::Instant;

/// The current instant.
pub fn now() -> Instant {
    // p3q-allow: wall-clock — the benchmark measures elapsed time; no library logic reads it
    Instant::now()
}

/// Milliseconds elapsed since `start`.
pub fn ms_since(start: Instant) -> f64 {
    now().duration_since(start).as_secs_f64() * 1e3
}
