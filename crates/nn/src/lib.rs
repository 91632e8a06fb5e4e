//! # ctlm-nn — the neural-network substrate (PyTorch stand-in)
//!
//! The paper's models need a narrow slice of PyTorch, which this crate
//! implements natively:
//!
//! * [`SparseLinear`] — the input layer, weight stored input-major so
//!   sparse rows read and update contiguous memory — and dense
//!   [`Linear`] layers with `(out_features × in_features)` weights, both
//!   with the `requires_grad` freezing semantics of Listing 1;
//! * [`Net`] — an `nn.Sequential` equivalent with named layers
//!   (`fc1`, `fc2`, …) and explicit forward/backward over sparse inputs.
//!   There is one forward pass: the training step, [`Net::forward`],
//!   [`Net::predict`] and [`Net::forward_into`] — inference into a
//!   [`Workspace`]'s activation buffers, which the analyzer and the
//!   trainer's per-epoch evaluation run allocation-free — all go
//!   through it;
//! * [`CrossEntropyLoss`] with per-class weights (the paper boosts
//!   Group 0 by 200×);
//! * [`Adam`] (lr 0.05 in the paper);
//! * [`StateDict`] save/load plus the Listing-2 input-weight zero-padding;
//! * [`grad_scale`] — the Listing-3 in-place gradient-multiplier trick
//!   that trains pre-trained input columns at 10 % rate while new columns
//!   train at full rate;
//! * [`Workspace`] — reusable forward/backward buffers making the
//!   steady-state [`Net::train_batch`] step and
//!   [`Net::forward_into`] allocation-free, and
//!   [`RowSlots`], the distinct-row map that lets a step run its per-row
//!   work once per distinct `(row, label)` pair, and [`StageTimes`], the
//!   step's clock.

pub mod batch;
pub mod grad_scale;
pub mod layer;
pub mod loss;
pub mod net;
pub mod optim;
pub mod state_dict;
pub mod workspace;

pub use batch::BatchIter;
pub use layer::{Layer, Linear, SparseLinear};
pub use loss::CrossEntropyLoss;
pub use net::Net;
pub use optim::Adam;
pub use state_dict::{pad_input_weight, StateDict, StateDictError, TensorData};
pub use workspace::{Lap, RowSlots, StageTimes, Workspace};
