//! Server-side observability: request counters, an in-flight gauge, a fixed-
//! bucket latency histogram, and the Prometheus text rendering that `/metrics`
//! serves.
//!
//! Everything here is shared across worker threads, so it is atomics and one
//! short-lived mutex (per-stage stats). The exposition format follows the
//! Prometheus 0.0.4 text conventions: `# HELP`/`# TYPE` preambles,
//! `_total` suffixes on counters, cumulative `le` buckets on the histogram.

use crate::cache::CacheStats;
use parking_lot::Mutex;
use permadead_core::StageStats;
use permadead_net::{Counter, MetricsSnapshot};
use permadead_sched::WatchSnapshot;
use std::sync::atomic::{AtomicI64, Ordering};

/// Histogram bucket upper bounds, in seconds. Audit queries on the simulated
/// world run in the micro-to-millisecond range; the tail buckets catch
/// queue-delayed requests under load.
pub const LATENCY_BUCKETS: [f64; 10] = [
    0.000_1, 0.000_25, 0.000_5, 0.001, 0.002_5, 0.005, 0.01, 0.05, 0.25, 1.0,
];

/// One endpoint's request counter, labeled by route.
pub struct EndpointCounter {
    pub route: &'static str,
    pub count: Counter,
}

/// One reactor thread's transport counters. With `--reactors N` every
/// reactor owns its own listener and connection table, so aggregate series
/// alone can't show a skewed accept split or one reactor monopolizing the
/// write-abort budget — these render as `permadead_serve_reactor_*`
/// series labeled `{reactor="k"}`, and the unlabeled aggregates next to
/// them are their sums.
#[derive(Default)]
pub struct ReactorMetrics {
    /// Connections this reactor accepted.
    pub accepted_total: Counter,
    /// Connections this reactor currently holds open.
    pub open_connections: AtomicI64,
    /// Responses this reactor could not deliver: the connection died (or
    /// was reclaimed) with bytes still queued — each one is work a worker
    /// did that no client received.
    pub write_aborted_total: Counter,
    /// Requests this reactor dispatched into the worker pool.
    pub dispatched_total: Counter,
}

/// Shared server metrics. One instance per server, touched by every worker.
pub struct ServeMetrics {
    /// Requests fully handled, by route (`other` = 404s and bad requests).
    pub by_endpoint: Vec<EndpointCounter>,
    /// Responses by status code class we actually emit.
    pub responses_2xx: Counter,
    pub responses_4xx: Counter,
    pub responses_5xx: Counter,
    /// Connections refused at admission (503 + Retry-After).
    pub rejected_total: Counter,
    /// Handler panics caught by the worker loop (the worker survives).
    pub worker_panics_total: Counter,
    /// Requests currently being processed by workers.
    pub inflight: AtomicI64,
    /// Links re-run by the incremental re-audit engine after watch flips.
    pub reaudit_links_total: Counter,
    /// Incremental re-runs whose memoized finding actually changed.
    pub reaudit_changed_total: Counter,
    /// Fresh checks whose rediscovery stage validated a new live URL.
    pub rescue_rescued_total: Counter,
    /// Per-reactor transport counters, one slot per reactor thread: the
    /// only copy of each; the unlabeled aggregates sum them at render time.
    pub reactors: Vec<ReactorMetrics>,
    /// Cumulative latency histogram over handled requests.
    bucket_counts: Vec<Counter>,
    latency_sum_nanos: Counter,
    latency_count: Counter,
    /// Per-stage pipeline counters accumulated across every audit.
    stage_stats: Mutex<Vec<StageStats>>,
}

pub const ROUTES: [&str; 8] =
    ["check", "batch", "watch", "watchlist", "report", "metrics", "healthz", "other"];

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    pub fn new() -> Self {
        Self::with_reactors(1)
    }

    /// Metrics for a server running `reactors` reactor threads; every
    /// per-reactor series exists from the start (zeros included) so scrapers
    /// see a stable label set for the server's whole lifetime.
    pub fn with_reactors(reactors: usize) -> Self {
        ServeMetrics {
            by_endpoint: ROUTES
                .iter()
                .map(|r| EndpointCounter {
                    route: r,
                    count: Counter::default(),
                })
                .collect(),
            responses_2xx: Counter::default(),
            responses_4xx: Counter::default(),
            responses_5xx: Counter::default(),
            rejected_total: Counter::default(),
            worker_panics_total: Counter::default(),
            inflight: AtomicI64::new(0),
            reaudit_links_total: Counter::default(),
            reaudit_changed_total: Counter::default(),
            rescue_rescued_total: Counter::default(),
            reactors: (0..reactors.max(1)).map(|_| ReactorMetrics::default()).collect(),
            bucket_counts: LATENCY_BUCKETS.iter().map(|_| Counter::default()).collect(),
            latency_sum_nanos: Counter::default(),
            latency_count: Counter::default(),
            stage_stats: Mutex::new(Vec::new()),
        }
    }

    pub fn count_route(&self, route: &str) {
        let slot = self
            .by_endpoint
            .iter()
            .find(|e| e.route == route)
            .or_else(|| self.by_endpoint.last())
            .expect("ROUTES is non-empty");
        slot.count.incr();
    }

    pub fn count_status(&self, status: u16) {
        match status / 100 {
            2 => self.responses_2xx.incr(),
            4 => self.responses_4xx.incr(),
            5 => self.responses_5xx.incr(),
            _ => {}
        }
    }

    pub fn observe_latency(&self, seconds: f64) {
        for (bound, count) in LATENCY_BUCKETS.iter().zip(&self.bucket_counts) {
            if seconds <= *bound {
                count.incr();
            }
        }
        self.latency_sum_nanos.add((seconds * 1e9) as u64);
        self.latency_count.incr();
    }

    /// Fold one audit's stage stats into the running totals, matching rows
    /// by stage name. Stages the totals have never seen are appended — the
    /// previous positional `zip` silently dropped trailing stages whenever an
    /// audit ran a longer stage list than the first one recorded (and its
    /// `debug_assert_eq!` on names compiled away in release builds).
    pub fn merge_stage_stats(&self, part: &[StageStats]) {
        let mut total = self.stage_stats.lock();
        for p in part {
            if let Some(t) = total.iter_mut().find(|t| t.name == p.name) {
                t.hits += p.hits;
                t.nanos += p.nanos;
                t.retries.add(p.retries);
                t.retry_backoff_ms += p.retry_backoff_ms;
            } else {
                total.push(p.clone());
            }
        }
    }

    pub fn stage_stats(&self) -> Vec<StageStats> {
        self.stage_stats.lock().clone()
    }

    pub fn requests_total(&self) -> u64 {
        self.by_endpoint.iter().map(|e| e.count.get()).sum()
    }

    /// Connections currently held open, across every reactor.
    pub fn open_connections(&self) -> i64 {
        let open: i64 = self
            .reactors
            .iter()
            .map(|r| r.open_connections.load(Ordering::Relaxed))
            .sum();
        open.max(0)
    }

    /// Render everything as Prometheus exposition text. The caller supplies
    /// the pieces owned elsewhere: cache stats, the simulated web's counter
    /// snapshot, the current admission-queue depth, the origin-budget
    /// ledger's exhausted hosts (empty when no budget is configured), and the
    /// watch scheduler's snapshot. Watch counters come straight from that
    /// snapshot — the scheduler is the single source of truth, so `/metrics`
    /// is in exact parity with `/watchlist` by construction.
    /// `rescue_index_pages` is the size of the service's rediscovery index
    /// (0 with rediscovery off); every `permadead_rescue_*` series renders
    /// unconditionally so scrapers see a stable metric set either way.
    pub fn render_prometheus(
        &self,
        cache: &CacheStats,
        net: &MetricsSnapshot,
        queue_depth: usize,
        origin_budget: &[(String, u64)],
        watch: &WatchSnapshot,
        rescue_index_pages: usize,
    ) -> String {
        let mut out = String::with_capacity(4096);
        let mut metric = |name: &str, kind: &str, help: &str, lines: &[String]| {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            for l in lines {
                out.push_str(l);
                out.push('\n');
            }
        };

        metric(
            "permadead_requests_total",
            "counter",
            "Requests handled, by endpoint.",
            &self
                .by_endpoint
                .iter()
                .map(|e| {
                    format!(
                        "permadead_requests_total{{endpoint=\"{}\"}} {}",
                        e.route,
                        e.count.get()
                    )
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_responses_total",
            "counter",
            "Responses emitted, by status class.",
            &[
                format!("permadead_responses_total{{class=\"2xx\"}} {}", self.responses_2xx.get()),
                format!("permadead_responses_total{{class=\"4xx\"}} {}", self.responses_4xx.get()),
                format!("permadead_responses_total{{class=\"5xx\"}} {}", self.responses_5xx.get()),
            ],
        );
        metric(
            "permadead_rejected_total",
            "counter",
            "Connections refused at admission control (503 + Retry-After).",
            &[format!("permadead_rejected_total {}", self.rejected_total.get())],
        );
        metric(
            "permadead_worker_panics_total",
            "counter",
            "Handler panics caught by the worker loop.",
            &[format!("permadead_worker_panics_total {}", self.worker_panics_total.get())],
        );
        metric(
            "permadead_serve_write_aborted_total",
            "counter",
            "Responses not fully delivered: the connection died with bytes still queued.",
            &[format!(
                "permadead_serve_write_aborted_total {}",
                self.reactors
                    .iter()
                    .map(|r| r.write_aborted_total.get())
                    .sum::<u64>()
            )],
        );
        metric(
            "permadead_serve_open_connections",
            "gauge",
            "Connections currently held open by the reactor.",
            &[format!(
                "permadead_serve_open_connections {}",
                self.open_connections()
            )],
        );
        // the per-reactor breakdown of the transport aggregates above
        metric(
            "permadead_serve_reactor_accepted_total",
            "counter",
            "Connections accepted, by reactor.",
            &self
                .reactors
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        "permadead_serve_reactor_accepted_total{{reactor=\"{i}\"}} {}",
                        r.accepted_total.get()
                    )
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_serve_reactor_dispatched_total",
            "counter",
            "Requests dispatched into the worker pool, by reactor.",
            &self
                .reactors
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        "permadead_serve_reactor_dispatched_total{{reactor=\"{i}\"}} {}",
                        r.dispatched_total.get()
                    )
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_serve_reactor_open_connections",
            "gauge",
            "Connections currently held open, by reactor.",
            &self
                .reactors
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        "permadead_serve_reactor_open_connections{{reactor=\"{i}\"}} {}",
                        r.open_connections.load(Ordering::Relaxed).max(0)
                    )
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_serve_reactor_write_aborted_total",
            "counter",
            "Undeliverable responses, by reactor.",
            &self
                .reactors
                .iter()
                .enumerate()
                .map(|(i, r)| {
                    format!(
                        "permadead_serve_reactor_write_aborted_total{{reactor=\"{i}\"}} {}",
                        r.write_aborted_total.get()
                    )
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_inflight_requests",
            "gauge",
            "Requests currently being processed by workers.",
            &[format!(
                "permadead_inflight_requests {}",
                self.inflight.load(Ordering::Relaxed)
            )],
        );
        metric(
            "permadead_pending_queue_depth",
            "gauge",
            "Accepted connections waiting for a worker.",
            &[format!("permadead_pending_queue_depth {queue_depth}")],
        );

        // latency histogram (cumulative buckets, prometheus-style)
        let mut lines: Vec<String> = LATENCY_BUCKETS
            .iter()
            .zip(&self.bucket_counts)
            .map(|(bound, count)| {
                format!(
                    "permadead_request_duration_seconds_bucket{{le=\"{bound}\"}} {}",
                    count.get()
                )
            })
            .collect();
        lines.push(format!(
            "permadead_request_duration_seconds_bucket{{le=\"+Inf\"}} {}",
            self.latency_count.get()
        ));
        lines.push(format!(
            "permadead_request_duration_seconds_sum {}",
            self.latency_sum_nanos.get() as f64 / 1e9
        ));
        lines.push(format!(
            "permadead_request_duration_seconds_count {}",
            self.latency_count.get()
        ));
        metric(
            "permadead_request_duration_seconds",
            "histogram",
            "End-to-end request handling latency.",
            &lines,
        );

        metric(
            "permadead_cache_hits_total",
            "counter",
            "Audit cache hits.",
            &[format!("permadead_cache_hits_total {}", cache.hits)],
        );
        metric(
            "permadead_cache_misses_total",
            "counter",
            "Audit cache misses (including TTL expirations).",
            &[format!("permadead_cache_misses_total {}", cache.misses)],
        );
        metric(
            "permadead_cache_evictions_total",
            "counter",
            "Entries evicted by LRU pressure.",
            &[format!("permadead_cache_evictions_total {}", cache.evictions)],
        );
        metric(
            "permadead_cache_expirations_total",
            "counter",
            "Entries dropped at TTL expiry.",
            &[format!("permadead_cache_expirations_total {}", cache.expirations)],
        );
        metric(
            "permadead_cache_entries",
            "gauge",
            "Entries currently resident.",
            &[format!("permadead_cache_entries {}", cache.entries)],
        );
        metric(
            "permadead_cache_hit_ratio",
            "gauge",
            "Hits over lookups since start.",
            &[format!("permadead_cache_hit_ratio {:.6}", cache.hit_ratio())],
        );

        // the simulated live web's own counters — the measurement cost side
        metric(
            "permadead_simweb_requests_total",
            "counter",
            "Requests issued to the simulated live web.",
            &[format!("permadead_simweb_requests_total {}", net.requests)],
        );
        metric(
            "permadead_simweb_transport_failures_total",
            "counter",
            "Simulated transport-level failures (DNS, timeouts).",
            &[format!(
                "permadead_simweb_transport_failures_total {}",
                net.transport_failures
            )],
        );
        metric(
            "permadead_simweb_responses_total",
            "counter",
            "Simulated web responses by status family.",
            &[
                format!("permadead_simweb_responses_total{{class=\"2xx\"}} {}", net.responses_2xx),
                format!("permadead_simweb_responses_total{{class=\"3xx\"}} {}", net.responses_3xx),
                format!("permadead_simweb_responses_total{{class=\"4xx\"}} {}", net.responses_4xx),
                format!("permadead_simweb_responses_total{{class=\"5xx\"}} {}", net.responses_5xx),
            ],
        );

        // per-stage pipeline counters
        let stages = self.stage_stats();
        metric(
            "permadead_stage_hits_total",
            "counter",
            "Links for which each pipeline stage did real work.",
            &stages
                .iter()
                .map(|s| format!("permadead_stage_hits_total{{stage=\"{}\"}} {}", s.name, s.hits))
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_stage_seconds_total",
            "counter",
            "Wall-clock spent inside each pipeline stage.",
            &stages
                .iter()
                .map(|s| {
                    format!(
                        "permadead_stage_seconds_total{{stage=\"{}\"}} {:.9}",
                        s.name,
                        s.nanos as f64 / 1e9
                    )
                })
                .collect::<Vec<_>>(),
        );

        // retry counters, summed across stages. Every cause series is always
        // present (zero included) so dashboards see stable label sets.
        let mut retries = permadead_net::RetryCounts::default();
        for s in &stages {
            retries.add(s.retries);
        }
        metric(
            "permadead_retries_total",
            "counter",
            "Retries scheduled by the audit retry policy, by cause.",
            &retries
                .per_cause()
                .iter()
                .map(|(cause, n)| format!("permadead_retries_total{{cause=\"{cause}\"}} {n}"))
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_retry_exhausted_total",
            "counter",
            "Audits that gave up with a retryable failure still in hand.",
            &[format!("permadead_retry_exhausted_total {}", retries.exhausted)],
        );
        // per-host series appear only once a host's budget runs out; the
        // preamble is always present so scrapers learn the metric exists
        metric(
            "permadead_origin_retry_budget_exhausted_total",
            "counter",
            "Checks refused retries because the origin's retry budget ran out.",
            &origin_budget
                .iter()
                .map(|(host, refused)| {
                    format!(
                        "permadead_origin_retry_budget_exhausted_total{{host=\"{host}\"}} {refused}"
                    )
                })
                .collect::<Vec<_>>(),
        );

        // the continuous-monitoring workload (the watch scheduler)
        metric(
            "permadead_watch_due_total",
            "counter",
            "Re-checks dispatched by the watch scheduler.",
            &[format!("permadead_watch_due_total {}", watch.counters.due)],
        );
        metric(
            "permadead_watch_checks_total",
            "counter",
            "Re-check outcomes applied to watched links.",
            &[format!("permadead_watch_checks_total {}", watch.counters.checks)],
        );
        metric(
            "permadead_watch_tagged_total",
            "counter",
            "Watched links tagged permanently dead (strike ladder completed).",
            &[format!("permadead_watch_tagged_total {}", watch.counters.tagged)],
        );
        metric(
            "permadead_watch_revived_total",
            "counter",
            "Tagged links observed alive again (the paper's ~3% resurrections).",
            &[format!("permadead_watch_revived_total {}", watch.counters.revived)],
        );
        metric(
            "permadead_watch_deferred_total",
            "counter",
            "Re-checks pushed to the next day by per-host politeness budgets.",
            &[format!("permadead_watch_deferred_total {}", watch.counters.deferred)],
        );
        metric(
            "permadead_reaudit_links_total",
            "counter",
            "Links re-run by the incremental re-audit engine after watch flips.",
            &[format!("permadead_reaudit_links_total {}", self.reaudit_links_total.get())],
        );
        metric(
            "permadead_reaudit_changed_total",
            "counter",
            "Incremental re-runs whose memoized finding actually changed.",
            &[format!("permadead_reaudit_changed_total {}", self.reaudit_changed_total.get())],
        );
        metric(
            "permadead_watch_queue_depth",
            "gauge",
            "Re-check events waiting in the watch scheduler's queue.",
            &[format!("permadead_watch_queue_depth {}", watch.pending)],
        );
        metric(
            "permadead_watchlist_size",
            "gauge",
            "Links currently being watched.",
            &[format!("permadead_watchlist_size {}", watch.watchlist)],
        );
        metric(
            "permadead_watch_tagged_links",
            "gauge",
            "Watched links currently in the tagged state.",
            &[format!("permadead_watch_tagged_links {}", watch.tagged_now)],
        );
        // every state series is always present (zero included) so dashboards
        // see stable label sets across policies
        metric(
            "permadead_watch_state",
            "gauge",
            "Watched links by policy state (healthy/suspicious/quarantined/tagged).",
            &watch
                .states
                .iter()
                .iter()
                .map(|(state, count)| {
                    format!("permadead_watch_state{{state=\"{state}\"}} {count}")
                })
                .collect::<Vec<_>>(),
        );
        metric(
            "permadead_watch_policy",
            "gauge",
            "The active dead-link detection policy (info-style gauge).",
            &[format!("permadead_watch_policy{{policy=\"{}\"}} 1", watch.policy)],
        );

        // the rediscovery rescue stage (E19); all-zero with rediscovery off
        let rescue_queries =
            stages.iter().find(|s| s.name == "rediscovery").map(|s| s.hits).unwrap_or(0);
        metric(
            "permadead_rescue_queries_total",
            "counter",
            "Links the rediscovery stage searched the index for.",
            &[format!("permadead_rescue_queries_total {rescue_queries}")],
        );
        metric(
            "permadead_rescue_rescued_total",
            "counter",
            "Fresh checks whose rediscovery validated the content at a new live URL.",
            &[format!("permadead_rescue_rescued_total {}", self.rescue_rescued_total.get())],
        );
        metric(
            "permadead_rescue_index_pages",
            "gauge",
            "Live pages in the rediscovery index (0 when rediscovery is off).",
            &[format!("permadead_rescue_index_pages {rescue_index_pages}")],
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_counting_falls_back_to_other() {
        let m = ServeMetrics::new();
        m.count_route("check");
        m.count_route("check");
        m.count_route("nonsense");
        assert_eq!(m.by_endpoint[0].count.get(), 2);
        assert_eq!(m.by_endpoint.last().unwrap().count.get(), 1);
        assert_eq!(m.requests_total(), 3);
    }

    #[test]
    fn latency_buckets_are_cumulative() {
        let m = ServeMetrics::new();
        m.observe_latency(0.0002); // falls in every bucket from 0.25ms up
        m.observe_latency(0.3); // only the 1.0 bucket
        let text = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        assert!(text.contains("permadead_request_duration_seconds_bucket{le=\"0.00025\"} 1"));
        assert!(text.contains("permadead_request_duration_seconds_bucket{le=\"1\"} 2"));
        assert!(text.contains("permadead_request_duration_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("permadead_request_duration_seconds_count 2"));
    }

    #[test]
    fn prometheus_text_is_well_formed() {
        let m = ServeMetrics::new();
        m.count_route("check");
        m.count_status(200);
        m.merge_stage_stats(&[StageStats {
            name: "live-check",
            hits: 1,
            nanos: 1000,
            ..Default::default()
        }]);
        let cache = CacheStats {
            hits: 3,
            misses: 1,
            ..Default::default()
        };
        let text =
            m.render_prometheus(&cache, &MetricsSnapshot::default(), 2, &[], &WatchSnapshot::default(), 0);
        for needle in [
            "# TYPE permadead_requests_total counter",
            "permadead_requests_total{endpoint=\"check\"} 1",
            "permadead_responses_total{class=\"2xx\"} 1",
            "permadead_cache_hits_total 3",
            "permadead_cache_hit_ratio 0.750000",
            "permadead_pending_queue_depth 2",
            "permadead_stage_hits_total{stage=\"live-check\"} 1",
            "permadead_retries_total{cause=\"connect-timeout\"} 0",
            "permadead_retries_total{cause=\"availability-timeout\"} 0",
            "permadead_retry_exhausted_total 0",
        ] {
            assert!(text.contains(needle), "missing: {needle}\n{text}");
        }
        // every non-comment line is `name{labels} value` with a parseable value
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("metric line has a value");
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line}");
        }
    }

    fn stat(name: &'static str, hits: u64) -> StageStats {
        StageStats {
            name,
            hits,
            nanos: 10,
            ..Default::default()
        }
    }

    #[test]
    fn merge_by_name_survives_mismatched_lengths() {
        let m = ServeMetrics::new();
        // a short stage list first (e.g. a custom two-stage audit)…
        m.merge_stage_stats(&[stat("live-check", 1), stat("archival-class", 1)]);
        // …then the full default list: trailing stages must not be dropped
        m.merge_stage_stats(&[
            stat("live-check", 1),
            stat("archival-class", 1),
            stat("rescue-scan", 5),
        ]);
        let total = m.stage_stats();
        let by_name = |n: &str| total.iter().find(|s| s.name == n).map(|s| s.hits);
        assert_eq!(by_name("live-check"), Some(2));
        assert_eq!(by_name("archival-class"), Some(2));
        assert_eq!(by_name("rescue-scan"), Some(5), "trailing stage was truncated");
        // order-independent too: a permuted list merges by name, not position
        m.merge_stage_stats(&[stat("rescue-scan", 1), stat("live-check", 1)]);
        let total = m.stage_stats();
        let by_name = |n: &str| total.iter().find(|s| s.name == n).map(|s| s.hits);
        assert_eq!(by_name("live-check"), Some(3));
        assert_eq!(by_name("rescue-scan"), Some(6));
    }

    #[test]
    fn origin_budget_series_render_per_exhausted_host() {
        let m = ServeMetrics::new();
        let none = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        // preamble always present, no series until a host exhausts its budget
        assert!(none.contains("# TYPE permadead_origin_retry_budget_exhausted_total counter"));
        assert!(!none.contains("permadead_origin_retry_budget_exhausted_total{"));

        let exhausted = vec![("flappy.org".to_string(), 3u64)];
        let text = m.render_prometheus(
            &CacheStats::default(),
            &MetricsSnapshot::default(),
            0,
            &exhausted,
            &WatchSnapshot::default(),
            0,
        );
        assert!(text.contains(
            "permadead_origin_retry_budget_exhausted_total{host=\"flappy.org\"} 3"
        ));
    }

    #[test]
    fn merged_retry_counts_flow_into_prometheus() {
        let m = ServeMetrics::new();
        let mut s = stat("live-check", 1);
        s.retries.record(permadead_net::RetryCause::ConnectTimeout);
        s.retries.record(permadead_net::RetryCause::RateLimited);
        s.retries.exhausted += 1;
        m.merge_stage_stats(&[s.clone()]);
        m.merge_stage_stats(&[s]);
        let text = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        assert!(text.contains("permadead_retries_total{cause=\"connect-timeout\"} 2"));
        assert!(text.contains("permadead_retries_total{cause=\"rate-limited\"} 2"));
        assert!(text.contains("permadead_retries_total{cause=\"unavailable\"} 0"));
        assert!(text.contains("permadead_retry_exhausted_total 2"));
    }

    #[test]
    fn reaudit_counters_render_and_route_counts() {
        let m = ServeMetrics::new();
        m.count_route("report");
        m.reaudit_links_total.add(4);
        m.reaudit_changed_total.add(1);
        let text = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        for needle in [
            "permadead_requests_total{endpoint=\"report\"} 1",
            "# TYPE permadead_reaudit_links_total counter",
            "permadead_reaudit_links_total 4",
            "permadead_reaudit_changed_total 1",
        ] {
            assert!(text.contains(needle), "missing: {needle}");
        }
    }

    /// The whole boot-time exposition of a two-reactor server, byte for
    /// byte: every series renders from boot, zeros included, in a stable
    /// order. Change `testdata/boot_metrics.prom` only with the metric set.
    #[test]
    fn boot_exposition_matches_the_pinned_text() {
        let m = ServeMetrics::with_reactors(2);
        let text = m.render_prometheus(
            &CacheStats::default(),
            &MetricsSnapshot::default(),
            0,
            &[],
            &WatchSnapshot::default(),
            0,
        );
        assert_eq!(text, include_str!("../testdata/boot_metrics.prom"));
    }

    #[test]
    fn reactor_delivery_series_render() {
        let m = ServeMetrics::with_reactors(2);
        m.reactors[0].write_aborted_total.add(1);
        m.reactors[1].write_aborted_total.add(2);
        m.reactors[0].open_connections.store(9, Ordering::Relaxed);
        m.reactors[1].open_connections.store(8, Ordering::Relaxed);
        let text = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        for needle in [
            "# TYPE permadead_serve_write_aborted_total counter",
            "permadead_serve_write_aborted_total 3",
            "# TYPE permadead_serve_open_connections gauge",
            "permadead_serve_open_connections 17",
        ] {
            assert!(text.contains(needle), "missing: {needle}");
        }
    }

    #[test]
    fn per_reactor_series_render_for_every_reactor() {
        let m = ServeMetrics::with_reactors(2);
        m.reactors[0].accepted_total.add(5);
        m.reactors[0].dispatched_total.add(4);
        m.reactors[1].accepted_total.add(3);
        m.reactors[1].open_connections.store(2, Ordering::Relaxed);
        m.reactors[1].write_aborted_total.incr();
        let text = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        for needle in [
            "# TYPE permadead_serve_reactor_accepted_total counter",
            "permadead_serve_reactor_accepted_total{reactor=\"0\"} 5",
            "permadead_serve_reactor_accepted_total{reactor=\"1\"} 3",
            "permadead_serve_reactor_dispatched_total{reactor=\"0\"} 4",
            "permadead_serve_reactor_dispatched_total{reactor=\"1\"} 0",
            "permadead_serve_reactor_open_connections{reactor=\"0\"} 0",
            "permadead_serve_reactor_open_connections{reactor=\"1\"} 2",
            "permadead_serve_reactor_write_aborted_total{reactor=\"1\"} 1",
        ] {
            assert!(text.contains(needle), "missing: {needle}");
        }
        // a single-reactor server still renders the labeled breakdown
        let single = ServeMetrics::new();
        let text = single.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        assert!(text.contains("permadead_serve_reactor_accepted_total{reactor=\"0\"} 0"));
        assert!(!text.contains("reactor=\"1\""));
    }

    #[test]
    fn rescue_series_always_render() {
        let m = ServeMetrics::new();
        // rediscovery off: every series present, all zero
        let off = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 0);
        for needle in [
            "# TYPE permadead_rescue_queries_total counter",
            "permadead_rescue_queries_total 0",
            "permadead_rescue_rescued_total 0",
            "# TYPE permadead_rescue_index_pages gauge",
            "permadead_rescue_index_pages 0",
        ] {
            assert!(off.contains(needle), "missing: {needle}");
        }
        // rediscovery on: queries come from the stage counter, rescues from
        // the dedicated counter, pages from the caller
        m.merge_stage_stats(&[stat("rediscovery", 7)]);
        m.rescue_rescued_total.add(2);
        let on = m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &WatchSnapshot::default(), 341);
        assert!(on.contains("permadead_rescue_queries_total 7"), "{on}");
        assert!(on.contains("permadead_rescue_rescued_total 2"));
        assert!(on.contains("permadead_rescue_index_pages 341"));
    }

    #[test]
    fn watch_series_render_from_the_scheduler_snapshot() {
        let m = ServeMetrics::new();
        let watch = WatchSnapshot {
            counters: permadead_sched::SchedCounters {
                due: 9,
                checks: 8,
                tagged: 2,
                revived: 1,
                deferred: 1,
            },
            pending: 4,
            watchlist: 5,
            tagged_now: 1,
            states: permadead_sched::StateDist {
                healthy: 3,
                suspicious: 1,
                quarantined: 0,
                tagged: 1,
            },
            policy: "health-score",
        };
        let text =
            m.render_prometheus(&CacheStats::default(), &MetricsSnapshot::default(), 0, &[], &watch, 0);
        for needle in [
            "# TYPE permadead_watch_due_total counter",
            "permadead_watch_due_total 9",
            "permadead_watch_checks_total 8",
            "permadead_watch_tagged_total 2",
            "permadead_watch_revived_total 1",
            "permadead_watch_deferred_total 1",
            "permadead_watch_queue_depth 4",
            "permadead_watchlist_size 5",
            "permadead_watch_tagged_links 1",
            "# TYPE permadead_watch_state gauge",
            "permadead_watch_state{state=\"healthy\"} 3",
            "permadead_watch_state{state=\"suspicious\"} 1",
            "permadead_watch_state{state=\"quarantined\"} 0",
            "permadead_watch_state{state=\"tagged\"} 1",
            "permadead_watch_policy{policy=\"health-score\"} 1",
        ] {
            assert!(text.contains(needle), "missing: {needle}");
        }
    }
}
