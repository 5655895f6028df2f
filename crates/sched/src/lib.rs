//! `permadead-sched` — a deterministic continuous re-check scheduler.
//!
//! The paper's object of study only exists because IABot *keeps checking*:
//! a link is re-fetched repeatedly over months and must fail N consecutive
//! checks spanning a minimum wall-clock window before it earns the
//! "permanently dead" tag — and §3 finds ~3% of tagged links later answer a
//! genuine 200 again (mostly via later-added redirects), which only
//! continued monitoring can catch. Everything else in this workspace is a
//! snapshot; this crate is the time axis.
//!
//! The pieces:
//!
//! * [`Watcher`] — the per-link monitoring record. The tagging decision is
//!   delegated to a pluggable `permadead-policy` state machine (IABot's
//!   consecutive-failure strikes by default; pywikibot weekly confirmation
//!   and umbrix-style health scoring selectable via `--policy`), with
//!   resurrection detection (a tagged link answering 200 again is recorded
//!   as a *revival* and goes back to being watched).
//! * [`Cadence`] — pluggable re-check interval policies: fixed interval,
//!   exponential aging (stable links get checked less often), and
//!   seeded-jitter (herd-spreading without losing determinism).
//! * [`HostBudget`] — FNV-sharded per-host politeness token buckets (the
//!   `OriginLedger` pattern from `permadead-serve`): one flapping host
//!   cannot monopolize the daily check budget; refused checks are deferred
//!   to the next UTC midnight.
//! * [`Scheduler`] — the event queue itself, built on
//!   `permadead_net::EventQueue`'s `(due, priority, seq)` heap ordering:
//!   same seed ⇒ bit-identical pop order, so the whole replay is
//!   reproducible event for event.
//! * [`run_days`] / [`Timeline`] — the batch driver behind
//!   `permadead watch`: replay N simulated days, emit a per-day table of
//!   checks / tags / revivals, bit-identical for any `--jobs` value.
//!
//! Determinism contract: every re-check outcome is a pure function of
//! `(web, url, time, retry policy)`, and the scheduler's bookkeeping
//! (admission, deferral, strike accounting, next-due computation) is applied
//! strictly in `(due, seq)` order. Worker parallelism only overlaps the
//! pure fetches, never the bookkeeping — so `--jobs 8` replays the same
//! timeline as `--jobs 1`, byte for byte.

pub mod cadence;
pub mod politeness;
pub mod scheduler;
pub mod score;
pub mod timeline;
pub mod watcher;

pub use cadence::Cadence;
pub use politeness::HostBudget;
pub use scheduler::{SchedCounters, Scheduler, SchedulerConfig, WatchSnapshot};
pub use score::{render_score_table, score_policy, PolicyScore};
pub use timeline::{run_days, DayRow, Timeline};
pub use watcher::Watcher;

// The policy machinery lives in `permadead-policy`; re-export the pieces
// every scheduler consumer needs so `sched::Transition` etc. keep working.
pub use permadead_policy::{
    DeadPolicy, LinkState, Observation, PolicySpec, StateDist, Transition, POLICY_USAGE,
};
