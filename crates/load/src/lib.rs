//! # loom-load
//!
//! The open-loop capacity harness: measures what the serving stack can
//! actually sustain, in real wall-clock time, against the work its queries
//! really do.
//!
//! A **closed-loop** driver (issue, wait, issue again) self-throttles at
//! saturation: when the engine slows down, so does the load, so queues never
//! grow and the measured "capacity" is whatever the driver settled into.
//! This crate drives [`loom_serve::ServeEngine`] **open-loop**: arrival
//! times are a pure function of `(process, rate, seed)` computed before the
//! run, injection never blocks on backpressure (a full shard queue rejects
//! the arrival on the spot), and late or rejected requests are counted
//! against the step's error budget — never retried. That independence is
//! what makes the saturation knee an honest property of the engine.
//!
//! The pieces:
//!
//! * [`arrival`] — [`ArrivalProcess`]: seeded Poisson or constant-interval
//!   inter-arrival gaps, bit-reproducible per `(seed, rate, duration)`;
//! * [`ramp`] — [`RampSchedule`]: the `initial_rps → increment_rps →
//!   max_rps` sweep (the Internet-Computer scalability suite's knob set);
//! * [`driver`] — [`run_capacity`] / [`LoadConfig`]: paces the schedule
//!   through [`loom_serve::OpenLoopInjector`], measuring per-step offered vs
//!   achieved RPS, wall-clock p50/p99/p999 sojourn, queue-wait p99 (from
//!   `loom-obs` interval diffs), rejects, sheds, and in-flight depth;
//! * [`knee`] — [`detect_knee`]: finds the knee (the first step whose
//!   goodput flattens below 90 % of offered);
//! * [`report`] — [`StepMetrics`], one row per ramp step, and
//!   [`CapacityRun::text_report`], the table a run prints.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod arrival;
pub mod driver;
pub mod knee;
pub mod ramp;
pub mod report;

pub use arrival::ArrivalProcess;
pub use driver::{run_capacity, CapacityRun, LoadConfig};
pub use knee::detect_knee;
pub use ramp::RampSchedule;
pub use report::StepMetrics;

/// Convenient re-exports for examples, tests and the umbrella crate.
pub mod prelude {
    pub use crate::arrival::ArrivalProcess;
    pub use crate::driver::{run_capacity, CapacityRun, LoadConfig};
    pub use crate::knee::detect_knee;
    pub use crate::ramp::RampSchedule;
    pub use crate::report::StepMetrics;
}
