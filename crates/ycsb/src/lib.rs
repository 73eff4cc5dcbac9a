//! YCSB — the Yahoo! Cloud Serving Benchmark [14], re-implemented.
//!
//! The paper's evaluation (§10) drives Couchbase Server with YCSB: "The
//! testing tool used was the Yahoo Cloud Serving Benchmark (YCSB). The
//! Couchbase adapter for YCSB was built to operate against a Couchbase
//! Server cluster [...] including support for the N1QL query language."
//!
//! This crate reproduces the YCSB core-workload model:
//!
//! - [`generators`]: uniform / zipfian (Gray's algorithm, θ = 0.99) /
//!   scrambled-zipfian / latest request distributions, exactly as in the
//!   original Java implementation;
//! - [`workload`]: the standard workload mixes A–F (A = 50/50 read/update
//!   and E = 95/5 short-range-scan/insert are the two the paper reports);
//! - [`runner`]: a multi-threaded load/run harness against the `cbs-core`
//!   SDK, with latency histograms and throughput accounting — the
//!   regeneration vehicle for Figures 15 and 16.

pub mod generators;
pub mod runner;
pub mod workload;

pub use generators::{Generator, LatestGen, ScrambledZipfianGen, UniformGen, ZipfianGen};
pub use runner::{run_workload, LoadPhase, RunSummary};
pub use workload::{OpKind, Workload, WorkloadSpec};
