//! The checked-in spec files every lab suite walks, found one way.

use std::path::{Path, PathBuf};

use ctlm_lab::ExperimentSpec;

/// The repository's `experiments/` directory.
pub fn experiments_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// The files directly in `dir` (no recursion) with `extension`, sorted.
/// Over [`experiments_dir`] with `"json"` these are the top-level specs:
/// `experiments/scale/` holds release-profile material too large for
/// the debug-build suite, and `experiments/regressions/` holds specs
/// the runner must reject or survive, replayed by `cli.rs`.
pub fn files(dir: &Path, extension: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == extension))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no *.{extension} in {}", dir.display());
    files
}

/// Reads and parses one spec file.
pub fn load(path: &Path) -> ExperimentSpec {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    ExperimentSpec::from_json(&text).unwrap_or_else(|e| panic!("parse {}: {e}", path.display()))
}
