//! # rulebases-bench
//!
//! The experiment harness of the `rulebases` workspace: seeded stand-in
//! datasets, one function per table/figure of the evaluation suite, and
//! the timing utilities behind the `exp` binary and the Criterion benches.
//!
//! ```bash
//! cargo run --release -p rulebases-bench --bin exp -- all --scale default
//! cargo bench -p rulebases-bench
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod artifact;
pub mod datasets;
pub mod gate;
pub mod kernels_probe;
pub mod tables;
pub mod timing;

/// The shared fan-out primitives (one implementation for experiment
/// cells and levelwise miners alike), re-exported from
/// `rulebases_dataset::pool` under this crate's historical module name.
pub use rulebases_dataset::pool as parallel;

pub use artifact::{append_bench_history, write_bench_artifact};
pub use datasets::{
    drifting_census, engine_from_env, pipeline_from_env, project_top_items, wide_flat, Scale,
    StandIn,
};
pub use kernels_probe::{run_kernel_probes, KernelProbe};
pub use parallel::{parallel_map, Parallelism};
