//! # ctlm-data — constraint-operator datasets
//!
//! Everything between raw task constraints and trainable matrices:
//!
//! * [`compaction`] — Table V's constraint collapsing: combining ordering
//!   operators into a *Between* range, folding Not-Equal lists into a
//!   *Non-Equal-Array*, letting *Equal* dominate, and flagging the rare
//!   contradictions the paper says get logged and skipped.
//! * [`vocab`] — the append-only attribute-value vocabulary that defines
//!   the CO-VV feature-array layout (new values become the last column).
//! * [`encode`] — the two dataset encodings the paper compares: CO-EL
//!   (collapsed COs one-hot encoded as labels, Table VI) and CO-VV
//!   (reversed 0/1 value vectors, Tables VII–VIII).
//! * [`dataset`] — labelled sparse datasets with grow-in-place columns.
//! * [`split`] — stratified train/test splitting (the paper stratifies
//!   whenever every class has at least two samples).
//! * [`metrics`] — accuracy, confusion matrices and per-class F1 (the
//!   evaluation tracks overall accuracy and Group-0 F1, counted in one
//!   pass).

pub mod compaction;
pub mod dataset;
pub mod encode;
pub mod export;
pub mod metrics;
pub mod split;
pub mod vocab;

pub use compaction::{collapse, AttrRequirement, CompactionError, Presence};
pub use dataset::{Dataset, NUM_GROUPS};
pub use encode::{co_el::CoElEncoder, co_vv::CoVvEncoder};
pub use metrics::{accuracy, confusion_matrix, f1_scores, Evaluation};
pub use split::{stratified_split, SplitConfig};
pub use vocab::{ValueKey, ValueVocab};
