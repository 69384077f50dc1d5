//! The repository benchmark: three single-process workloads driven through
//! the system's public entry points, end-to-end metrics per phase, and
//! benchmark-side per-layer attribution. `run.py` builds the `perfbench`
//! binary, runs one workload per process for the requested time and
//! aggregates the runs; see `README.md` beside this crate.

pub mod probe;
pub mod timed_store;
pub mod workloads;
