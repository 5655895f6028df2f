//! `permadead-serve` — the reproduction, turned always-on.
//!
//! The batch pipeline answers the paper's questions over a 10k-link dataset;
//! this crate answers them **per link, on demand**, the way IABot or
//! WaybackMedic-style tooling would query during an edit: "is this link
//! permanently dead, and what rescue copy exists?" It is an HTTP/1.1 service
//! over `std::net` with:
//!
//! - a fixed worker pool dispatched through a bounded crossbeam channel,
//!   with admission control (`503` + `Retry-After`) when the pending queue
//!   overflows ([`server`]);
//! - a sharded TTL+LRU verdict cache so repeated queries never re-drive the
//!   simulated network, probed on the reactor so a hit never waits for a
//!   worker ([`cache`]);
//! - the batch pipeline's own per-link unit underneath, with provenance
//!   resolution that keeps `/check` verdicts bit-identical to `permadead
//!   audit` for every dataset URL ([`service`]);
//! - Prometheus exposition of request, cache, pipeline-stage, watch, and
//!   simulated-network counters ([`metrics`]);
//! - a background watch scheduler (`POST /watch`, `GET /watchlist`) that
//!   pumps IABot-style continuous re-checks through the same worker pool,
//!   built on [`permadead_sched`] ([`server`]);
//! - an incremental re-audit engine fed by the scheduler's dirty set: one
//!   flipped watched link re-runs one link, and `GET /report` serves the
//!   maintained study aggregate ([`server`]);
//! - scenario → world lowering and the on-disk world cache behind
//!   `--world-cache` ([`worldcache`]).
//!
//! ```no_run
//! use permadead_serve::{start, AuditService, CacheConfig, ServerConfig};
//! use permadead_sim::ScenarioConfig;
//!
//! let service = AuditService::new(ScenarioConfig::small(42), CacheConfig::default());
//! let handle = start(service, ServerConfig::default()).unwrap();
//! println!("listening on {}", handle.addr());
//! ```

pub mod cache;
pub mod conn;
pub mod json;
pub mod metrics;
pub mod origin;
pub mod server;
pub mod service;
pub mod wire;
pub mod worldcache;

pub use cache::{CacheConfig, CacheStats, ShardedCache};
pub use metrics::ServeMetrics;
pub use origin::OriginLedger;
pub use server::{start, ServerConfig, ServerHandle, WatchConfig};
pub use service::{AuditService, CheckOutcome, Provenance};
pub use worldcache::{
    load_or_generate, take_rescue_index, world_for_snapshot, world_from_scenario, WorldCacheOutcome,
};
