//! E16 — the re-check policy counterfactual as a standalone repro artifact.
//!
//! Replays N simulated days (`PERMADEAD_WATCH_DAYS`, default 45) of
//! IABot-style continuous monitoring over the March dataset under a sweep
//! of cadence × strike-threshold policies, and prints what each policy
//! costs (checks issued) against what it buys (links tagged, revivals
//! caught, days until the first tag). The whole table is a pure function
//! of `(seed, scale, days)` — jitter cadences hash the world seed, never a
//! clock — and is jobs-independent via the scheduler's drain/fetch/apply
//! contract, so CI can pin it.

use permadead_bench::{jobs_from_env, Repro};
use permadead_core::live_check;
use permadead_net::Duration;
use permadead_sched::{run_days, Cadence, PolicySpec, Scheduler, SchedulerConfig};

fn main() {
    let repro = Repro::from_env();
    let days: u32 = std::env::var("PERMADEAD_WATCH_DAYS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(45);
    let jobs = jobs_from_env();
    let seed = repro.world.meta.seed;
    let start = repro.world.meta.study_time;
    let web = &repro.world.web;

    let cadences = ["fixed:1", "fixed:3", "fixed:7", "aging:1", "jitter:1"];
    let strike_ladders = [2u32, 3, 5];

    println!(
        "re-check policy counterfactual — {} links, {} simulated days (seed {seed})\n",
        repro.march.len(),
        days
    );
    println!(
        "  {:<10} {:>7}  {:>8}  {:>8}  {:>7}  {:>8}  {:>13}",
        "cadence", "strikes", "checks", "deferred", "tagged", "revived", "first-tag-day"
    );

    let mut lines = String::new();
    for spec in cadences {
        let cadence = Cadence::parse(spec, seed).expect("sweep specs are valid");
        for strikes in strike_ladders {
            let mut sched = Scheduler::new(SchedulerConfig {
                policy: PolicySpec::IabotStrikes {
                    strikes,
                    min_span: Duration::days(i64::from(strikes) - 1),
                },
                cadence,
                host_budget_per_day: None,
            });
            for entry in &repro.march.entries {
                sched.watch_staggered(entry.url.clone(), start);
            }
            let tl = run_days(&mut sched, start, days, jobs, |url, at| {
                live_check(web, url, at).is_final_200()
            });
            let first_tag_day = tl
                .rows
                .iter()
                .find(|r| r.tagged > 0)
                .map(|r| r.day as i64)
                .unwrap_or(-1);
            println!(
                "  {:<10} {:>7}  {:>8}  {:>8}  {:>7}  {:>8}  {:>13}",
                cadence.to_string(),
                strikes,
                tl.totals.checks,
                tl.totals.deferred,
                tl.tagged_final,
                tl.totals.revived,
                if first_tag_day < 0 { "never".to_string() } else { first_tag_day.to_string() },
            );
            lines.push_str(&format!(
                "{{\"bench\":\"recheck_table\",\"cadence\":\"{cadence}\",\"strikes\":{strikes},\
                 \"days\":{days},\"links\":{},\"checks\":{},\"deferred\":{},\"tagged\":{},\
                 \"revived\":{},\"first_tag_day\":{first_tag_day}}}\n",
                tl.links,
                tl.totals.checks,
                tl.totals.deferred,
                tl.tagged_final,
                tl.totals.revived,
            ));
        }
    }
    println!(
        "\nreading: slower cadences spend fewer checks but delay the first tag;\n\
         higher strike thresholds trade tagging latency for resistance to transient flaps."
    );

    match permadead_bench::persist_bench_results("recheck_table", &lines) {
        Ok(path) => eprintln!("[bench] wrote {}", path.display()),
        Err(e) => eprintln!("[bench] could not persist results: {e}"),
    }
}
