//! Statistics and figure rendering for the reproduction.
//!
//! Every figure in the paper is either an empirical CDF (Figures 3, 5, 6) or
//! a categorical bar chart (Figure 4). This crate computes those from raw
//! samples and renders them as aligned ASCII — the benches print series that
//! can be eyeballed against the paper or piped into a plotting tool.

pub mod cdf;
pub mod hist;
pub mod render;
pub mod summary;
pub mod twosample;

pub use cdf::Cdf;
pub use hist::{CategoricalCounts, LogBins};
pub use render::{render_bar_chart, render_cdf, render_log_hist, render_table};
pub use summary::{fraction, mean, median, nearest_rank, pct, percentile};
pub use twosample::{ks_test, KsTest};
