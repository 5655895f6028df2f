//! Aggregation of injector samples into the bench report persisted at
//! `results/BENCH_loadgen.json`.
//!
//! The report keeps the closed-loop and open-loop views side by side —
//! `resp_*` percentiles are what a closed-loop bench would have claimed,
//! `sched_*` percentiles are what users offered by the schedule actually
//! experienced — plus the lateness histogram and missed-slot count that
//! quantify how far the injector was pushed off its schedule.

use crate::inject::Sample;
use permadead_stats::nearest_rank;

/// Lateness histogram bucket upper bounds, in milliseconds. The `+Inf`
/// bucket is implicit (the last count in [`LoadReport::lateness_hist`]).
pub const LATENESS_BUCKETS_MS: [f64; 7] = [0.1, 0.5, 1.0, 5.0, 25.0, 100.0, 500.0];

/// Per-phase outcome breakdown: every fired request lands in exactly one
/// status family, so `total` is the sum of the other fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseBreakdown {
    pub phase: &'static str,
    pub total: usize,
    pub ok_2xx: usize,
    pub err_4xx: usize,
    /// Admission-control refusals, broken out of the 5xx family because the
    /// bench gates on them separately (503s are back-pressure, not bugs).
    pub err_503: usize,
    pub err_5xx_other: usize,
    /// Connect/read failures (status 0).
    pub transport: usize,
}

/// The full open-loop load report.
#[derive(Debug, Clone)]
pub struct LoadReport {
    /// Requests the schedule offered (= samples recorded; nothing is ever
    /// dropped).
    pub offered: usize,
    /// Wall-clock seconds from first scheduled instant to last completion.
    pub wall_secs: f64,
    /// Completions per wall-clock second.
    pub achieved_rps: f64,
    /// Schedule-based latency percentiles (coordinated-omission-proof), ms.
    pub sched_p50_ms: f64,
    pub sched_p99_ms: f64,
    pub sched_p999_ms: f64,
    pub sched_max_ms: f64,
    /// Response-based latency percentiles (the closed-loop view), ms.
    pub resp_p50_ms: f64,
    pub resp_p99_ms: f64,
    pub resp_p999_ms: f64,
    pub resp_max_ms: f64,
    /// Lateness percentiles, ms.
    pub lateness_p99_ms: f64,
    pub lateness_max_ms: f64,
    /// Requests that fired later than the configured miss tolerance.
    pub missed_slots: usize,
    /// Counts per [`LATENESS_BUCKETS_MS`] bucket, plus the +Inf overflow as
    /// the final element (cumulative, Prometheus-style).
    pub lateness_hist: Vec<u64>,
    pub phases: Vec<PhaseBreakdown>,
}

fn ms(nanos: u64) -> f64 {
    nanos as f64 / 1e6
}

/// The nearest-rank quantile `q` of an ascending slice, in ms; 0 for none.
fn quantile_ms(sorted: &[u64], q: f64) -> f64 {
    ms(nearest_rank(sorted, q).unwrap_or(0))
}

/// Fold samples into the report. `miss_tolerance_nanos` is the injector's
/// threshold for declaring a slot missed.
pub fn summarize(samples: &[Sample], miss_tolerance_nanos: u64) -> LoadReport {
    let mut sched: Vec<u64> = samples.iter().map(|s| s.sched_latency_nanos).collect();
    let mut resp: Vec<u64> = samples.iter().map(|s| s.resp_latency_nanos).collect();
    let mut late: Vec<u64> = samples.iter().map(|s| s.lateness_nanos).collect();
    sched.sort_unstable();
    resp.sort_unstable();
    late.sort_unstable();

    // wall clock: first scheduled instant → last completion on the shared
    // run clock (scheduled + sched-latency)
    let begin = samples.iter().map(|s| s.scheduled_nanos).min().unwrap_or(0);
    let end = samples
        .iter()
        .map(|s| s.scheduled_nanos + s.sched_latency_nanos)
        .max()
        .unwrap_or(0);
    let wall_secs = (end.saturating_sub(begin)) as f64 / 1e9;

    let mut lateness_hist = vec![0u64; LATENESS_BUCKETS_MS.len() + 1];
    for &nanos in &late {
        let ms = ms(nanos);
        for (i, bound) in LATENESS_BUCKETS_MS.iter().enumerate() {
            if ms <= *bound {
                lateness_hist[i] += 1;
            }
        }
        *lateness_hist.last_mut().expect("hist non-empty") += 1; // +Inf
    }

    let mut phases: Vec<PhaseBreakdown> = Vec::new();
    for s in samples {
        let slot = match phases.iter_mut().find(|p| p.phase == s.phase) {
            Some(p) => p,
            None => {
                phases.push(PhaseBreakdown {
                    phase: s.phase,
                    total: 0,
                    ok_2xx: 0,
                    err_4xx: 0,
                    err_503: 0,
                    err_5xx_other: 0,
                    transport: 0,
                });
                phases.last_mut().expect("just pushed")
            }
        };
        slot.total += 1;
        match s.status {
            0 => slot.transport += 1,
            503 => slot.err_503 += 1,
            200..=299 => slot.ok_2xx += 1,
            400..=499 => slot.err_4xx += 1,
            _ => slot.err_5xx_other += 1,
        }
    }
    phases.sort_by_key(|p| p.phase);

    LoadReport {
        offered: samples.len(),
        wall_secs,
        achieved_rps: if wall_secs > 0.0 { samples.len() as f64 / wall_secs } else { 0.0 },
        sched_p50_ms: quantile_ms(&sched, 0.50),
        sched_p99_ms: quantile_ms(&sched, 0.99),
        sched_p999_ms: quantile_ms(&sched, 0.999),
        sched_max_ms: quantile_ms(&sched, 1.0),
        resp_p50_ms: quantile_ms(&resp, 0.50),
        resp_p99_ms: quantile_ms(&resp, 0.99),
        resp_p999_ms: quantile_ms(&resp, 0.999),
        resp_max_ms: quantile_ms(&resp, 1.0),
        lateness_p99_ms: quantile_ms(&late, 0.99),
        lateness_max_ms: quantile_ms(&late, 1.0),
        missed_slots: samples.iter().filter(|s| s.lateness_nanos > miss_tolerance_nanos).count(),
        lateness_hist,
        phases,
    }
}

impl LoadReport {
    /// Render as one stable JSON object (no serde in the workspace). Key
    /// order is fixed so `results/BENCH_loadgen.json` diffs cleanly and the
    /// CI gate can grep fields naively.
    pub fn to_json(&self) -> String {
        let hist: Vec<String> = self.lateness_hist.iter().map(u64::to_string).collect();
        let phases: Vec<String> = self
            .phases
            .iter()
            .map(|p| {
                format!(
                    "{{\"phase\":\"{}\",\"total\":{},\"ok_2xx\":{},\"err_4xx\":{},\"err_503\":{},\"err_5xx_other\":{},\"transport\":{}}}",
                    p.phase, p.total, p.ok_2xx, p.err_4xx, p.err_503, p.err_5xx_other, p.transport
                )
            })
            .collect();
        format!(
            "{{\"offered\":{},\"wall_secs\":{:.3},\"achieved_rps\":{:.1},\
             \"sched_p50_ms\":{:.3},\"sched_p99_ms\":{:.3},\"sched_p999_ms\":{:.3},\"sched_max_ms\":{:.3},\
             \"resp_p50_ms\":{:.3},\"resp_p99_ms\":{:.3},\"resp_p999_ms\":{:.3},\"resp_max_ms\":{:.3},\
             \"lateness_p99_ms\":{:.3},\"lateness_max_ms\":{:.3},\"missed_slots\":{},\
             \"lateness_hist\":[{}],\"phases\":[{}]}}",
            self.offered,
            self.wall_secs,
            self.achieved_rps,
            self.sched_p50_ms,
            self.sched_p99_ms,
            self.sched_p999_ms,
            self.sched_max_ms,
            self.resp_p50_ms,
            self.resp_p99_ms,
            self.resp_p999_ms,
            self.resp_max_ms,
            self.lateness_p99_ms,
            self.lateness_max_ms,
            self.missed_slots,
            hist.join(","),
            phases.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(sched_ns: u64, late_ns: u64, resp_ns: u64, status: u16, phase: &'static str) -> Sample {
        Sample {
            scheduled_nanos: sched_ns,
            lateness_nanos: late_ns,
            sched_latency_nanos: resp_ns + late_ns,
            resp_latency_nanos: resp_ns,
            status,
            phase,
        }
    }

    #[test]
    fn sched_percentiles_dominate_resp_percentiles() {
        // lateness grows linearly (a backed-up injector): sched view must
        // dominate the resp view at every reported percentile
        let samples: Vec<Sample> = (0..1000)
            .map(|i| sample(i * 1_000_000, i * 500_000, 2_000_000, 200, "check"))
            .collect();
        let r = summarize(&samples, 1_000_000);
        assert!(r.sched_p50_ms >= r.resp_p50_ms);
        assert!(r.sched_p99_ms > r.resp_p99_ms * 10.0, "{} vs {}", r.sched_p99_ms, r.resp_p99_ms);
        assert!(r.sched_max_ms >= r.sched_p999_ms && r.sched_p999_ms >= r.sched_p99_ms);
        // lateness > 1ms for i >= 3: slots 3..1000 missed
        assert_eq!(r.missed_slots, 997);
    }

    #[test]
    fn phase_breakdown_partitions_statuses() {
        let samples = vec![
            sample(0, 0, 1000, 200, "check"),
            sample(1, 0, 1000, 404, "check"),
            sample(2, 0, 1000, 503, "check"),
            sample(3, 0, 1000, 500, "check"),
            sample(4, 0, 1000, 0, "check"),
            sample(5, 0, 1000, 200, "watch"),
        ];
        let r = summarize(&samples, 1_000_000);
        assert_eq!(r.offered, 6);
        let check = r.phases.iter().find(|p| p.phase == "check").expect("check phase");
        assert_eq!(
            (check.total, check.ok_2xx, check.err_4xx, check.err_503, check.err_5xx_other, check.transport),
            (5, 1, 1, 1, 1, 1)
        );
        let watch = r.phases.iter().find(|p| p.phase == "watch").expect("watch phase");
        assert_eq!((watch.total, watch.ok_2xx), (1, 1));
    }

    #[test]
    fn lateness_histogram_is_cumulative_with_overflow() {
        let samples = vec![
            sample(0, 50_000, 1000, 200, "check"),        // 0.05ms → every bucket
            sample(1, 2_000_000, 1000, 200, "check"),     // 2ms → 5ms bucket up
            sample(2, 900_000_000, 1000, 200, "check"),   // 900ms → only +Inf
        ];
        let r = summarize(&samples, 1_000_000);
        assert_eq!(r.lateness_hist, vec![1, 1, 1, 2, 2, 2, 2, 3]);
        assert_eq!(*r.lateness_hist.last().unwrap() as usize, r.offered);
    }

    #[test]
    fn json_has_the_gated_fields_and_parses_numerically() {
        let samples = vec![sample(0, 0, 2_000_000, 200, "check")];
        let json = summarize(&samples, 1_000_000).to_json();
        for key in [
            "\"offered\":", "\"achieved_rps\":", "\"sched_p99_ms\":", "\"resp_p99_ms\":",
            "\"lateness_p99_ms\":", "\"missed_slots\":", "\"lateness_hist\":[", "\"phases\":[",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
    }
}
