//! # banyan-bench
//!
//! The evaluation harness: regenerates **every table and figure** of
//! Kruskal–Snir–Weiss and the ablations described in `DESIGN.md`.
//!
//! Run individual experiments with the thin binaries:
//!
//! ```text
//! cargo run -p banyan-bench --release --bin table01      # Table I
//! cargo run -p banyan-bench --release --bin table07_12   # Tables VII–XII
//! cargo run -p banyan-bench --release --bin figures      # Figs. 3–8 series
//! cargo run -p banyan-bench --release --bin repro_all    # everything → results/
//! ```
//!
//! Every binary accepts `--quick` for a fast smoke run. Performance
//! microbenchmarks live in `benches/` on the in-repo harness
//! ([`micro`]); they are also exposed as binaries so
//! `cargo run -p banyan-bench --release --bin bench_analysis` (or
//! `bench_simulator`, `bench_numerics`) works without `cargo bench`,
//! each writing `results/BENCH_<suite>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod manifest;
pub mod micro;
pub mod paired;
pub mod plot;
pub mod profile;
pub mod suites;
pub mod table;

use profile::Scale;

/// Parses the common CLI convention of the repro binaries: `--quick`
/// selects the smoke scale, anything else (or nothing) the full scale.
pub fn scale_from_args() -> Scale {
    if std::env::args().any(|a| a == "--quick") {
        Scale::quick()
    } else {
        Scale::full()
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_default_is_full() {
        // In the test harness argv there is no --quick; this pins the
        // default branch.
        let s = super::scale_from_args();
        assert!(s.target_messages >= super::profile::Scale::quick().target_messages);
    }
}
