//! Statistical foundations for the gMark generator.
//!
//! This crate provides the numeric substrate the paper's algorithms rely on:
//!
//! * a small, deterministic, splittable pseudo-random number generator
//!   ([`Prng`]) so that graph and workload generation are exactly
//!   reproducible from a 64-bit seed,
//! * samplers for the three degree distributions supported by gMark
//!   (Definition 3.1): [`Uniform`], [`Gaussian`], and bounded [`Zipf`],
//! * least-squares [`regression`] used by the evaluation (Section 6.2) to
//!   recover the selectivity exponent `α` from `|Q(G)| = β·|G|^α`,
//! * summary statistics ([`summary`]) used to report the `mean ± sd` rows of
//!   Table 2,
//! * a lock-free log-bucketed latency [`histogram`] behind the serving
//!   path's `/v1/stats`,
//! * the workspace's one JSON emitter ([`JsonWriter`]) — here because this
//!   is the only crate below every producer of JSON.
//!
//! The `rand_distr` crate is not available offline, so the Gaussian
//! (Box–Muller) and Zipf (Hörmann–Derflinger rejection-inversion) samplers
//! are implemented and property-tested here.

#![warn(missing_docs)]

pub mod histogram;
pub mod json;
pub mod regression;
pub mod rng;
pub mod sampler;
pub mod summary;

pub use histogram::{HistogramSnapshot, LatencyHistogram};
pub use json::JsonWriter;
pub use regression::{linear_regression, log_log_alpha, Regression};
pub use rng::Prng;
pub use sampler::{DegreeSampler, Gaussian, Uniform, Zipf};
pub use summary::Summary;
