//! Model state dicts and the Listing-2 padding surgery.
//!
//! The paper's growing model works by editing the state dict *before*
//! restoring it: `fc1.weight` is padded on the right with zero columns so
//! the restored model accepts the widened feature array while behaving
//! identically on the old feature prefix. This module is that code path.

use std::collections::BTreeMap;
use std::fmt;
use std::path::Path;

use serde::{Deserialize, Serialize};

/// A named tensor payload.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TensorData {
    /// Tensor shape (row-major).
    pub shape: Vec<usize>,
    /// Flat data.
    pub data: Vec<f32>,
}

impl TensorData {
    /// Total element count implied by the shape.
    pub fn numel(&self) -> usize {
        self.shape.iter().product()
    }
}

/// `name → tensor` map, PyTorch `state_dict()` style.
pub type StateDict = BTreeMap<String, TensorData>;

/// Errors from loading or editing a state dict.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StateDictError {
    /// A required key was absent.
    MissingKey(String),
    /// A tensor's shape did not match the model.
    ShapeMismatch {
        /// Offending key.
        key: String,
        /// Shape the model expects.
        expected: Vec<usize>,
        /// Shape found in the dict.
        found: Vec<usize>,
    },
    /// Serialization failure.
    Io(String),
}

impl fmt::Display for StateDictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateDictError::MissingKey(k) => write!(f, "state dict missing key {k:?}"),
            StateDictError::ShapeMismatch {
                key,
                expected,
                found,
            } => {
                write!(
                    f,
                    "shape mismatch for {key:?}: expected {expected:?}, found {found:?}"
                )
            }
            StateDictError::Io(e) => write!(f, "state dict I/O error: {e}"),
        }
    }
}

impl std::error::Error for StateDictError {}

/// The paper's Listing 2: pads a 2-D input weight (`fc1.weight`) on the
/// right with zero columns up to `new_in_features`.
///
/// “Since the CO-VV dataset appends new values to the end of the features
/// array, initializing the new weights to zero ensures compatibility with
/// the previous dataset, where new attribute values do not exist yet.”
///
/// No-op when the width already matches (the listing's
/// `if pretrained_features_count != dataset_data.features_count` guard).
pub fn pad_input_weight(
    sd: &mut StateDict,
    key: &str,
    new_in_features: usize,
) -> Result<usize, StateDictError> {
    let tensor = sd
        .get_mut(key)
        .ok_or_else(|| StateDictError::MissingKey(key.to_string()))?;
    if tensor.shape.len() != 2 {
        return Err(StateDictError::ShapeMismatch {
            key: key.to_string(),
            expected: vec![0, 0],
            found: tensor.shape.clone(),
        });
    }
    let (rows, old_in) = (tensor.shape[0], tensor.shape[1]);
    if old_in == new_in_features {
        return Ok(old_in);
    }
    if old_in > new_in_features {
        return Err(StateDictError::ShapeMismatch {
            key: key.to_string(),
            expected: vec![rows, new_in_features],
            found: tensor.shape.clone(),
        });
    }
    let mut data = vec![0.0f32; rows * new_in_features];
    for r in 0..rows {
        data[r * new_in_features..r * new_in_features + old_in]
            .copy_from_slice(&tensor.data[r * old_in..(r + 1) * old_in]);
    }
    tensor.shape = vec![rows, new_in_features];
    tensor.data = data;
    Ok(old_in)
}

/// Saves a state dict as JSON (the reproduction's `torch.save`).
pub fn save(sd: &StateDict, path: &Path) -> Result<(), StateDictError> {
    let json = serde_json::to_vec(sd).map_err(|e| StateDictError::Io(e.to_string()))?;
    std::fs::write(path, json).map_err(|e| StateDictError::Io(e.to_string()))
}

/// Loads a state dict from JSON (the reproduction's `torch.load`).
pub fn load(path: &Path) -> Result<StateDict, StateDictError> {
    let bytes = std::fs::read(path).map_err(|e| StateDictError::Io(e.to_string()))?;
    serde_json::from_slice(&bytes).map_err(|e| StateDictError::Io(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sd() -> StateDict {
        let mut sd = StateDict::new();
        sd.insert(
            "fc1.weight".into(),
            TensorData {
                shape: vec![2, 3],
                data: vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
            },
        );
        sd.insert(
            "fc1.bias".into(),
            TensorData {
                shape: vec![2],
                data: vec![0.1, 0.2],
            },
        );
        sd
    }

    #[test]
    fn pad_extends_with_zero_columns() {
        let mut sd = sample_sd();
        let old = pad_input_weight(&mut sd, "fc1.weight", 5).unwrap();
        assert_eq!(old, 3);
        let t = &sd["fc1.weight"];
        assert_eq!(t.shape, vec![2, 5]);
        assert_eq!(
            t.data,
            vec![1.0, 2.0, 3.0, 0.0, 0.0, 4.0, 5.0, 6.0, 0.0, 0.0]
        );
    }

    #[test]
    fn pad_same_width_is_noop() {
        let mut sd = sample_sd();
        let before = sd.clone();
        pad_input_weight(&mut sd, "fc1.weight", 3).unwrap();
        assert_eq!(sd, before);
    }

    #[test]
    fn pad_rejects_shrink() {
        let mut sd = sample_sd();
        let err = pad_input_weight(&mut sd, "fc1.weight", 2).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }));
    }

    #[test]
    fn pad_rejects_missing_key() {
        let mut sd = sample_sd();
        let err = pad_input_weight(&mut sd, "fc9.weight", 10).unwrap_err();
        assert!(matches!(err, StateDictError::MissingKey(_)));
    }

    #[test]
    fn pad_rejects_non_2d() {
        let mut sd = sample_sd();
        let err = pad_input_weight(&mut sd, "fc1.bias", 10).unwrap_err();
        assert!(matches!(err, StateDictError::ShapeMismatch { .. }));
    }

    #[test]
    fn save_load_roundtrip() {
        let dir = std::env::temp_dir().join("ctlm_state_dict_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.json");
        let sd = sample_sd();
        save(&sd, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(sd, back);
        std::fs::remove_file(&path).ok();
    }
}
