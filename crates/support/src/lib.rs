//! # lbsa-support — zero-dependency infrastructure
//!
//! The workspace is built to compile **offline**: no crates.io access is
//! assumed. This crate supplies the small, self-contained pieces that would
//! otherwise come from external crates:
//!
//! * [`rng`] — a seeded, reproducible PRNG (SplitMix64-seeded
//!   xoshiro256\*\*) replacing `rand::rngs::StdRng` for schedulers, outcome
//!   resolvers, sampling, and randomized tests;
//! * [`hash`] — the Fx multiply-xor hasher, used by the explorer's interner
//!   and sharded dedup map where hashing fixed-size integer keys is hot;
//! * [`bench`] — a micro-benchmark harness API-compatible with the subset
//!   of Criterion the `lbsa-bench` suite uses (`benchmark_group`,
//!   `bench_function`, `bench_with_input`, `iter`, `iter_batched`), with
//!   JSON result emission for perf trajectories;
//! * [`check`] — a tiny property-test runner (seeded random cases with a
//!   reproducing-seed panic message) replacing the proptest harness;
//! * [`json`] — an ordered JSON document model with deterministic emission
//!   and a strict parser, replacing `serde_json` for the `reports/*.json`
//!   experiment artifacts;
//! * [`obs`] — the tracing/metrics layer (`Tracer`, pluggable sinks, relaxed
//!   atomic counters/gauges, and the live-metrics `Registry` with
//!   OpenMetrics rendering) the exploration engine threads through its hot
//!   phases, replacing `tracing` + `tracing-subscriber` + a metrics crate;
//! * [`deque`] — a lock-free Chase–Lev work-stealing deque (single-owner
//!   LIFO end, CAS-steal FIFO end, steal-half batching) replacing
//!   `crossbeam-deque` for the explorer's work-stealing pool;
//! * [`memtrack`] (feature `mem-profile`) — a tracking global allocator
//!   reporting live/peak heap bytes, replacing `dhat`-style heap profiling
//!   for the memory-accounting gauges.
//!
//! Unsafe code is denied crate-wide and allowed in exactly two places: the
//! [`deque`] buffer management, whose safety argument lives with the module
//! (and in DESIGN.md §12) and is exercised under Miri in CI, and the
//! [`memtrack`] allocator wrapper, which forwards every call verbatim to
//! `std::alloc::System`.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
pub mod check;
pub mod deque;
pub mod hash;
pub mod json;
#[cfg(feature = "mem-profile")]
pub mod memtrack;
pub mod obs;
pub mod rng;
