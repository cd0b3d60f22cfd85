//! The repository's benchmark.
//!
//! Four long workloads over the public `dos` facade, measured from outside:
//! work per CPU-second relative to an interleaved reference kernel's speed,
//! set-up CPU time and peak resident memory, plus a traced pass that replays
//! one operation's layer calls inside the benchmark's own spans. See
//! `README.md` in this directory for the glossary and the method.

#![warn(missing_docs)]

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod driver;
pub mod inputs;
pub mod layers;
pub mod refkernel;
pub mod schema;
pub mod spans;
pub mod stats;
pub mod sys;
pub mod trial;
pub mod window;
pub mod workloads;
