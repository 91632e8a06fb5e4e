//! Host fingerprinting: which machine produced a measurement.
//!
//! The PR-7 bench caveat — 1.4–1.8× "regressions" that were really a
//! different container instance with less memory bandwidth — went
//! undiagnosed because nothing recorded *which host* produced a number.
//! The fingerprint answers that: cpu model + core count, attached to
//! lab-report `_meta` so `ctlm-lab --diff` can warn when the hosts
//! differ.

use serde::{Deserialize, Error, Serialize, Value};

/// Identity of the machine a measurement was taken on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HostFingerprint {
    /// CPU model string (`model name` from `/proc/cpuinfo`; `"unknown"`
    /// when unreadable, e.g. off Linux).
    pub cpu_model: String,
    /// Logical core count visible to the process.
    pub cores: usize,
}

impl HostFingerprint {
    /// Reads the current host's fingerprint. Best-effort: missing
    /// `/proc/cpuinfo` degrades to `"unknown"` rather than failing.
    pub fn detect() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|text| {
                text.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        Self { cpu_model, cores }
    }

    /// True when two fingerprints plausibly name the same host class
    /// (same cpu model and core count).
    pub fn same_host(&self, other: &HostFingerprint) -> bool {
        self.cpu_model == other.cpu_model && self.cores == other.cores
    }

    /// One-line human form (`"AMD EPYC 7B13 (8 cores)"`).
    pub fn label(&self) -> String {
        format!("{} ({} cores)", self.cpu_model, self.cores)
    }
}

impl Serialize for HostFingerprint {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("cpu_model".to_string(), Value::Str(self.cpu_model.clone())),
            ("cores".to_string(), Value::Num(self.cores as f64)),
        ])
    }
}

impl Deserialize for HostFingerprint {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Self {
            cpu_model: String::from_value(v.get_field("cpu_model"))
                .map_err(|e| e.context("HostFingerprint.cpu_model"))?,
            cores: usize::from_value(v.get_field("cores"))
                .map_err(|e| e.context("HostFingerprint.cores"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detect_yields_nonempty_model_and_positive_cores() {
        let fp = HostFingerprint::detect();
        assert!(!fp.cpu_model.is_empty());
        assert!(fp.cores >= 1);
        assert!(fp.same_host(&fp));
    }

    #[test]
    fn roundtrips_and_compares() {
        let a = HostFingerprint {
            cpu_model: "Fake CPU X1".into(),
            cores: 4,
        };
        let back = HostFingerprint::from_value(&a.to_value()).unwrap();
        assert_eq!(a, back);
        let b = HostFingerprint {
            cpu_model: "Fake CPU X1".into(),
            cores: 8,
        };
        assert!(!a.same_host(&b));
    }
}
