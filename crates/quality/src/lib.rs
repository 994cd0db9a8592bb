//! Output-quality metrics for approximate computing experiments.
//!
//! Paraprox evaluates every application with an application-specific error
//! metric (its Table 1): the relative L1 norm, the relative L2 norm, or the
//! mean relative error. This crate implements those metrics, converts them
//! to the paper's "output quality %" scale (`100 × (1 − error)`), computes
//! per-element error distributions (the CDF of its Figure 13), defines
//! the [`Toq`] (target output quality) type that drives the runtime tuner,
//! and provides [`QualityStream`] — a constant-space online estimator
//! (running mean, minimum, EWMA) for serving engines that watch
//! calibration checks indefinitely.
//!
//! # Example
//!
//! ```
//! use paraprox_quality::{Metric, Toq};
//!
//! let exact = [1.0, 2.0, 4.0];
//! let approx = [1.0, 2.2, 3.6];
//! let q = Metric::MeanRelative.quality(&exact, &approx);
//! assert!(q > 90.0 && q < 100.0);
//! assert!(Toq::new(90.0).unwrap().is_met(q));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cdf;
mod metric;
mod stream;
mod toq;

pub use cdf::{per_element_errors, ErrorCdf};
pub use metric::Metric;
pub use stream::QualityStream;
pub use toq::{Toq, ToqError};
