//! # prefender-stats — summaries, series and table rendering
//!
//! Small, dependency-free helpers the experiment harnesses share:
//!
//! * [`Summary`] — count/mean/min/max/stddev of a sample set;
//! * [`geo_mean`] / [`speedup_pct`] — the paper's headline metrics;
//! * [`Histogram`] / [`entropy_bits`] — exact symbol counts and Shannon
//!   entropy, the substrate of the leakage lab's channel estimates;
//! * [`SplitMix64`] / [`derive_seed`] / [`shuffle`] / [`multinomial`] /
//!   [`quantile`] / [`p_value_ge`] — deterministic resampling: seeded
//!   permutation nulls and bootstrap draws for the statistical-rigor
//!   layer of the leakage lab;
//! * [`Xoshiro256`] — the workspace's one general-purpose generator:
//!   attack probe orders, workload data and property-test cases;
//! * [`Table`] — aligned plain-text tables matching the paper's layout;
//! * [`Series`] — named `(x, y)` sequences with CSV export, for figures.
//!
//! ```
//! use prefender_stats::{Table, speedup_pct};
//!
//! let mut t = Table::new(vec!["Benchmark".into(), "Speedup".into()]);
//! t.row(vec!["429.mcf".into(), format!("{:+.3}%", speedup_pct(1000.0, 920.0))]);
//! assert!(t.render().contains("+8.000%"));
//! ```

mod dist;
mod resample;
mod series;
mod summary;
mod table;

pub use dist::{entropy_bits, Histogram};
pub use resample::{
    derive_seed, mix64, multinomial, p_value_ge, quantile, shuffle, SplitMix64, Xoshiro256,
};
pub use series::Series;
pub use summary::{geo_mean, speedup_pct, Summary};
pub use table::Table;
