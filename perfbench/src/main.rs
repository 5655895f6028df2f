//! `perfbench`: the measuring half of the benchmark (`run.py` builds the
//! program, prepares the snapshot, and calls this).
//!
//! ```text
//! perfbench prepare --cache DIR
//! perfbench run --workload audit-paper|rediscover-paper|serve-paper --seed N
//!               --seconds S --trace 0|1 --cache DIR --server PERMADEAD_BIN
//!               --trace-out FILE
//! perfbench ladder --rates HZ,HZ,… --seed N --seconds S --cache DIR
//!               --server PERMADEAD_BIN
//! ```
//!
//! `prepare` generates the paper-scale snapshot with this build's code.
//! `run` refuses to start without it, so generation never lands in a run.

mod batch;
mod checks;
mod inject;
mod layers;
mod pct;
mod procfs;
mod report;
mod rng;
mod serve;
mod trace;
mod world;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use world::Ctx;

const WORKLOADS: [&str; 3] = ["audit-paper", "rediscover-paper", "serve-paper"];

fn flags(args: &[String]) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = it
            .next()
            .ok_or_else(|| format!("flag {flag} needs a value"))?;
        out.insert(name.to_string(), value.clone());
    }
    Ok(out)
}

fn need<'a>(f: &'a HashMap<String, String>, name: &str) -> Result<&'a str, String> {
    f.get(name)
        .map(String::as_str)
        .ok_or_else(|| format!("missing --{name}"))
}

fn prepare(f: &HashMap<String, String>) -> Result<(), String> {
    let cache = PathBuf::from(need(f, "cache")?);
    let config = permadead_sim::ScenarioConfig::paper(world::WORLD_SEED);
    let t0 = Instant::now();
    let (_, outcome) = permadead_serve::load_or_generate(&cache, config, world::WORLD_SCALE)
        .map_err(|e| format!("preparing the snapshot: {e}"))?;
    println!(
        "snapshot {} ({}): {:.1} MB, {} in {:.1} s",
        outcome.path.display(),
        if outcome.hit {
            "already present"
        } else {
            "generated"
        },
        outcome.size_bytes as f64 / (1 << 20) as f64,
        if outcome.hit { "loaded" } else { "generated" },
        t0.elapsed().as_secs_f64(),
    );
    Ok(())
}

fn context(f: &HashMap<String, String>) -> Result<Ctx, String> {
    let cache = PathBuf::from(need(f, "cache")?);
    let ctx = Ctx {
        seed: need(f, "seed")?
            .parse()
            .map_err(|_| "--seed must be a whole number")?,
        seconds: need(f, "seconds")?
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        rate_hz: serve::CHECK_RATE_HZ,
        snapshot: world::snapshot_path(&cache),
        cache,
        server_bin: PathBuf::from(need(f, "server")?),
        trace_out: f.get("trace-out").map(PathBuf::from).unwrap_or_default(),
    };
    if !ctx.snapshot.is_file() {
        return Err(format!(
            "no snapshot at {}; prepare it first (python3 perfbench/run.py prepare)",
            ctx.snapshot.display()
        ));
    }
    Ok(ctx)
}

fn run(f: &HashMap<String, String>) -> Result<report::Report, String> {
    let workload = need(f, "workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let ctx = context(f)?;
    let traced = match need(f, "trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let steal0 = procfs::steal_ticks().map_err(|e| e.to_string())?;
    let mut report = if traced {
        layers::run(&ctx)?
    } else {
        match workload {
            "audit-paper" => batch::run(&ctx, false)?,
            "rediscover-paper" => batch::run(&ctx, true)?,
            _ => serve::run(&ctx)?,
        }
    };
    let steal = procfs::steal_ticks().map_err(|e| e.to_string())? - steal0;
    report.note(format!("host CPU steal over the run: {steal} ticks"));
    Ok(report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("usage: perfbench prepare|run --flag value …");
        return ExitCode::FAILURE;
    };
    let parsed = match flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let outcome = match command.as_str() {
        "prepare" => prepare(&parsed).map(|()| None),
        "run" => run(&parsed).map(Some),
        "ladder" => need(&parsed, "rates")
            .and_then(|rates| {
                rates
                    .split(',')
                    .map(|r| {
                        r.trim()
                            .parse::<f64>()
                            .map_err(|_| format!("bad rate {r:?}"))
                    })
                    .collect::<Result<Vec<f64>, String>>()
            })
            .and_then(|rates| serve::ladder(&context(&parsed)?, &rates))
            .map(|()| None),
        other => Err(format!("unknown command {other:?}")),
    };
    match outcome {
        Ok(None) => ExitCode::SUCCESS,
        Ok(Some(report)) => {
            for (name, attempted, failed) in &report.phases {
                println!("phase {name}: attempted {attempted}, failed {failed}");
            }
            for note in &report.notes {
                println!("{note}");
            }
            for failure in &report.failures {
                println!("CHECK FAILED: {failure}");
            }
            if let Some((name, value, _)) = report.metrics.iter().find(|m| !m.1.is_finite()) {
                eprintln!("error: metric {name} is {value}");
                return ExitCode::FAILURE;
            }
            println!("{}", report.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
