//! `bench_diff`: the perf history of `perfbench` runs and the
//! regression gate over it (see [`diff`] and EXPERIMENTS.md).

pub mod diff;
