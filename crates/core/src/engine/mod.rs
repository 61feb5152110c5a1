//! The serving core both clocks share.
//!
//! The paper's runtime does one thing: admit a request, queue it, serve
//! it at the selected bit-width in a packed forward, count it. This crate
//! runs that on two clocks — the simulated step loop
//! ([`crate::sharding::simulate_serving_sharded_versioned`], behind every
//! `simulate_serving*` entry point) and the wall-clock workers
//! ([`crate::wallclock::serve_wallclock_streaming`], behind every
//! `serve_wallclock*` entry point). The two loops keep only their clock's
//! decisions — *when* a batch is taken and *from which queue*; everything
//! a batch goes through once taken lives here, once:
//!
//! * [`batch`] — the shared half of configuration validation, batch
//!   gather and scatter, the `catch_unwind`-isolated forward with the
//!   injected fault, the canary shadow compare, and the dynamic batch
//!   controller;
//! * [`degrade`] — the serving-point rule (the policy's pick, minus the
//!   degradation levels) and the hysteresis downshift controller,
//!   parameterized over an abstract monotone tick so simulated steps and
//!   wall-clock microseconds drive the same state machine;
//! * [`stats`] — the accumulator each replica or worker owns and its one
//!   merge into [`crate::runtime::RuntimeStats`] (counters, histogram,
//!   `time_in_bits`, generations, mean accuracy, switch energy, wait
//!   percentiles, registry activity);
//! * [`cache`] — the exact-key LRU content cache;
//! * [`queue`] — the bounded MPMC ingress queues the wall-clock threads
//!   share;
//! * [`clock`] — the wall-clock run clock mapping `Instant`s onto trace
//!   steps.
//!
//! The twin guarantee rests on this layout: because both clocks select,
//! degrade, execute and account through the same code, and the packed
//! engine quantizes activations per sample, a fault-free wall-clock run
//! over a frozen trace completes the same request set with bit-identical
//! outputs as the step loop — only the timing-derived statistics differ.

pub(crate) mod batch;
pub(crate) mod cache;
pub(crate) mod clock;
pub(crate) mod degrade;
pub(crate) mod queue;
pub(crate) mod stats;
