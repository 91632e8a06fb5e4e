//! # ctlm-tensor — numeric substrate for the CTLM reproduction
//!
//! The paper's models are built on PyTorch tensors. This crate provides the
//! small subset of tensor machinery the paper actually uses, implemented
//! natively in Rust:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix used for layer weights,
//!   activations and gradients.
//! * [`Csr`] — a compressed-sparse-row matrix used for the highly sparse
//!   CO-VV / CO-EL feature datasets (the paper notes ones represent less
//!   than 0.01 % of entries at full scale).
//! * [`ops`] — the linear-algebra kernels (dense GEMM, sparse×dense
//!   products, reductions), cache-blocked and register-tiled.
//! * [`init`] — PyTorch-compatible layer weight initialisation
//!   (Kaiming-uniform fan-in scaling, as `torch.nn.Linear` uses).
//!
//! Everything is deterministic given an RNG seed, which the reproduction
//! relies on for its table-regeneration binaries.

pub mod dense;
pub mod init;
pub mod ops;
pub mod sparse;

pub use dense::Matrix;
pub use sparse::{Csr, CsrBuilder};
