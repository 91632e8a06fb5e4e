//! # ctlm-bench — micro-benches and the repository's measuring tools
//!
//! Criterion micro-benches (`benches/`) for the §V timing claims and the
//! gated scaling ratios, and two tools:
//!
//! * `bench_check` asserts ratios between two medians of one criterion
//!   recording (CI's bench gate);
//! * `source_lines` counts each crate's non-test source lines, on
//!   [`source`]'s lexer, which the source rules under `tests/` scan too.
//!
//! [`ParsedArgs`] is the one argument parser of the workspace's
//! binaries, `ctlm-lab` included. The paper's tables and figures are
//! `ctlm-lab paper <name>` documents (`ctlm_lab::paper`), pinned under
//! `experiments/golden/paper/`.

pub mod args;
pub mod source;

pub use args::ParsedArgs;
