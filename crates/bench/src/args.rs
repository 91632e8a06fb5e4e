//! The one hand-rolled argument parser for the workspace's binaries.
//!
//! It holds the convention they share — boolean flags (`--medium`),
//! valued options (`--seed 42`) and positional arguments (a spec path) —
//! so each binary, and each form of `ctlm-lab`, declares the vocabulary
//! it reads: any other `--` argument is an error, never ignored.

use std::collections::{BTreeMap, BTreeSet};

/// Parsed command line: which flags were set, option values, and the
/// remaining positional arguments in order.
#[derive(Clone, Debug, Default)]
pub struct ParsedArgs {
    flags: BTreeSet<String>,
    options: BTreeMap<String, String>,
    positionals: Vec<String>,
}

impl ParsedArgs {
    /// Parses `argv` (without the program name) against the declared
    /// vocabulary: `flags` take no value, `options` consume the next
    /// argument. Anything starting with `--` outside the vocabulary is an
    /// error, and so is an option given twice (one value would be
    /// silently dropped); everything else is positional.
    pub fn parse(
        argv: impl IntoIterator<Item = String>,
        flags: &[&str],
        options: &[&str],
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut iter = argv.into_iter();
        while let Some(arg) = iter.next() {
            if flags.contains(&arg.as_str()) {
                out.flags.insert(arg);
            } else if options.contains(&arg.as_str()) {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                if out.options.contains_key(&arg) {
                    return Err(format!("{arg} given twice"));
                }
                out.options.insert(arg, value);
            } else if arg.starts_with("--") {
                let expected = [flags, options].concat().join(", ");
                return Err(format!(
                    "unknown argument {arg:?} (expected one of {expected})"
                ));
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// [`ParsedArgs::parse`] over the process arguments; a bad command
    /// line prints `error: …` and exits with code 2 (the binaries'
    /// behavior).
    pub fn from_env(flags: &[&str], options: &[&str]) -> Self {
        Self::parse(std::env::args().skip(1), flags, options).unwrap_or_else(|e| usage_error(&e))
    }

    /// True when the flag was present.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }

    /// The raw value of an option, if present.
    pub fn option(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// Positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Reports a bad command line (or an unusable input file) the way every
/// binary does: one `error:` line on stderr, exit code 2 — no panic
/// banner, no backtrace hint.
pub fn usage_error(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_options_positionals() {
        let a = ParsedArgs::parse(
            argv(&["--medium", "--seed", "7", "spec.json"]),
            &["--medium", "--full"],
            &["--seed"],
        )
        .unwrap();
        assert!(a.flag("--medium"));
        assert!(!a.flag("--full"));
        assert_eq!(a.option("--seed"), Some("7"));
        assert_eq!(a.positionals(), ["spec.json"]);
    }

    #[test]
    fn unknown_and_missing_value_error() {
        assert!(ParsedArgs::parse(argv(&["--bogus"]), &[], &[]).is_err());
        assert!(ParsedArgs::parse(argv(&["--seed"]), &[], &["--seed"]).is_err());
    }

    #[test]
    fn repeated_option_errors() {
        let err =
            ParsedArgs::parse(argv(&["--seed", "1", "--seed", "2"]), &[], &["--seed"]).unwrap_err();
        assert_eq!(err, "--seed given twice");
    }

    #[test]
    fn absent_option_is_none() {
        let a = ParsedArgs::parse(argv(&[]), &[], &["--seed"]).unwrap();
        assert_eq!(a.option("--seed"), None);
    }
}
