//! The repository benchmark's library: workloads, metric catalog, span
//! bookkeeping and order statistics. `src/main.rs` is the command.

pub mod atlas;
pub mod catalog;
pub mod host;
pub mod inputs;
pub mod local;
pub mod ooc;
pub mod run;
pub mod socket;
pub mod spans;
pub mod stats;
