//! Dense `f32` tensors and a tape-based reverse-mode autodiff engine.
//!
//! This crate is the numerical substrate for the InstantNet reproduction.
//! It provides:
//!
//! * [`Tensor`] — a row-major, heap-allocated `f32` n-d array with the
//!   elementwise / matmul / im2col kernels needed by small CNNs.
//! * [`Var`] — a node in a dynamically built computation graph
//!   (define-by-run). Calling [`Var::backward`] on a scalar propagates exact
//!   analytic gradients to every reachable leaf.
//! * [`ops`] — differentiable operators: convolution (grouped / depthwise),
//!   batch normalization, pooling, activations, fused
//!   softmax-cross-entropy, and [`ops::ste_apply`] — the straight-through
//!   estimator hook that quantizers are built on.
//!
//! # Example
//!
//! ```
//! use instantnet_tensor::{Tensor, Var};
//!
//! let x = Var::leaf(Tensor::from_vec(vec![2], vec![1.0, -2.0]), true);
//! let y = x.mul(&x).sum(); // y = sum(x^2)
//! y.backward();
//! assert_eq!(x.grad().unwrap().data(), &[2.0, -4.0]); // dy/dx = 2x
//! ```
pub mod autograd;
pub mod check;
pub mod init;
pub mod ops;
#[cfg(test)]
mod reference_tests;
pub mod shape;
pub mod tensor;

pub use autograd::{Param, Var};
pub use shape::Shape;
pub use tensor::Tensor;
