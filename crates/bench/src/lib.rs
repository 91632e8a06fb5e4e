//! # ctlm-bench — the table/figure regeneration harness
//!
//! One binary per table and figure of the paper's evaluation section
//! (`src/bin/table*.rs`, `src/bin/fig3*.rs`, `src/bin/ablation*.rs`) and
//! Criterion micro-benches (`benches/`) for the §V timing claims.
//!
//! Every binary accepts:
//!
//! * `--medium` / `--full` — scale up from the default CI-friendly size
//!   (full approaches paper scale and is slow);
//! * `--seed N` — change the master seed.
//!
//! Absolute numbers differ from the paper (different hardware, synthetic
//! traces); the *shape* — who wins, by what factor, where the crossovers
//! are — is the reproduction target. The README's "The table and figure
//! binaries" section maps each table and figure to its binary.

use ctlm_agocs::replay::{ReplayOutput, Replayer};
use ctlm_trace::{CellSet, Scale, TraceGenerator};

pub mod args;
pub mod source;

pub use args::ParsedArgs;

/// Run scale selected on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunScale {
    /// Default: a few hundred machines, seconds per experiment.
    Small,
    /// ~1k machines; minutes.
    Medium,
    /// Paper scale; hours.
    Full,
}

/// Parsed common CLI options.
#[derive(Clone, Copy, Debug)]
pub struct Cli {
    /// Selected scale.
    pub scale: RunScale,
    /// Master seed.
    pub seed: u64,
}

impl Cli {
    /// Parses `--medium`, `--full` and `--seed N` from `std::env::args`
    /// via the shared [`args::ParsedArgs`] helper. Anything else — a
    /// stray positional included — is `error: …` and exit code 2.
    pub fn parse() -> Self {
        let parsed = ParsedArgs::from_env(&["--medium", "--full"], &["--seed"]);
        if !parsed.positionals().is_empty() {
            args::usage_error(&format!(
                "unexpected positional arguments {:?}",
                parsed.positionals()
            ));
        }
        let scale = if parsed.flag("--full") {
            RunScale::Full
        } else if parsed.flag("--medium") {
            RunScale::Medium
        } else {
            RunScale::Small
        };
        Self {
            scale,
            seed: parsed.option_or("--seed", 42),
        }
    }

    /// The trace scale for a cell profile under this CLI selection.
    pub fn trace_scale(&self, cell: CellSet) -> Scale {
        let profile = cell.profile();
        match self.scale {
            RunScale::Small => Scale {
                machines: 260,
                collections: 1_600,
                seed: self.seed,
            },
            RunScale::Medium => Scale {
                machines: 1_000,
                collections: 8_000,
                seed: self.seed,
            },
            RunScale::Full => Scale::full(&profile, self.seed),
        }
    }
}

/// Generates and replays one cell at the CLI scale.
pub fn replay_cell(cli: &Cli, cell: CellSet) -> ReplayOutput {
    let trace = TraceGenerator::generate_cell(cell, cli.trace_scale(cell));
    Replayer::default().replay(&trace)
}

/// Formats a fraction as the paper's percent style (`41.8%`).
pub fn pct(v: f64) -> String {
    format!("{:.1}%", 100.0 * v)
}

/// Formats an optional F1 like the paper's tables (blank when omitted).
pub fn opt_f1(v: Option<f64>) -> String {
    match v {
        Some(f) => format!("{f:.5}"),
        None => "—".to_string(),
    }
}

/// Prints a separator line sized to a header.
pub fn rule(width: usize) {
    println!("{}", "-".repeat(width));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_like_the_paper() {
        assert_eq!(pct(0.418), "41.8%");
        assert_eq!(pct(0.0), "0.0%");
    }

    #[test]
    fn opt_f1_formats() {
        assert_eq!(opt_f1(Some(0.99919)), "0.99919");
        assert_eq!(opt_f1(None), "—");
    }

    #[test]
    fn scales_grow_monotonically() {
        let small = Cli {
            scale: RunScale::Small,
            seed: 1,
        };
        let medium = Cli {
            scale: RunScale::Medium,
            seed: 1,
        };
        let full = Cli {
            scale: RunScale::Full,
            seed: 1,
        };
        let c = CellSet::C2019c;
        assert!(small.trace_scale(c).machines < medium.trace_scale(c).machines);
        assert!(medium.trace_scale(c).machines < full.trace_scale(c).machines);
        assert_eq!(full.trace_scale(c).machines, 12_600);
    }
}
