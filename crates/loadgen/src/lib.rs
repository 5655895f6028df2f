//! `permadead-loadgen` — an open-loop production-traffic harness, and the
//! one load tool in the workspace (`bench-loadgen` drives it).
//!
//! A **closed-loop** bench has N clients that each wait for a response
//! before sending the next request. Closed loops self-throttle — when the
//! server stalls, the clients politely stop offering load, and the recorded
//! latencies silently omit every request that *would* have been sent during
//! the stall. This is **coordinated omission** (Tene's "How NOT to Measure
//! Latency"), and it makes a stalling server look fast.
//!
//! This crate does it the other way around, in three stages that are
//! deliberately decoupled:
//!
//! 1. **[`schedule`]** — a deterministic *arrival schedule* is computed up
//!    front from a seed: Poisson or fixed-rate inter-arrivals, optionally
//!    modulated by a diurnal curve, with request URLs drawn Zipf-weighted by
//!    site popularity rank (plus configurable hot-set skew) and an optional
//!    concurrent watch-pump background phase. The schedule is a pure
//!    function of `(spec, universe)` — injector thread counts, server
//!    behaviour, and wall-clock have no influence on it.
//! 2. **[`inject`]** — a dedicated injector thread pool fires the schedule
//!    at the target. Every request is timed from its **scheduled** send
//!    instant, and the gap between scheduled and actual send (the
//!    *lateness*) is recorded per request. A stalled server cannot erase
//!    queued-behind-the-stall requests from the record: they fire late, and
//!    their schedule-based latency includes the wait. Each thread opens a
//!    fresh connection per request (`close`) or holds one keep-alive
//!    connection (`keepalive`); offered far above what the server can take,
//!    either mode measures its saturated throughput.
//! 3. **[`report`]** — aggregation into throughput, schedule-based and
//!    response-based percentiles (p50/p99/p999/max), a lateness histogram,
//!    missed-slot counts, and a per-phase status breakdown, rendered as a
//!    stable JSON object for `results/BENCH_loadgen.json`. Percentiles use
//!    `permadead-stats`' nearest-rank rule.
//!
//! By construction, per request: `sched_latency = resp_latency + lateness ≥
//! resp_latency`. Under a server stall the schedule-based p99 therefore
//! dominates the response-based p99 — exactly the signal a closed loop
//! destroys.

pub mod inject;
pub mod report;
pub mod schedule;

pub use inject::{fire, issue, Conn, ConnMode, InjectorConfig, Sample};
pub use report::{summarize, LoadReport, PhaseBreakdown};
pub use schedule::{
    ArrivalProcess, DiurnalCurve, HotSkew, Op, Schedule, ScheduleSpec, ScheduledRequest,
    WatchPumpSpec,
};
