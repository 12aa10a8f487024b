//! The P3Q benchmark: one workload per run, timed from outside every layer
//! through the library's public API.
//!
//! ```text
//! p3q-perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans PATH]
//! ```
//!
//! The last stdout line is the result: `correct`, `attempted`, `failed`
//! and the gated metrics (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). The line before it is the full report: setting, every
//! metric of the workload with its unit, the checks and the counter digest.
//! `--spans` writes the traced run's spans as JSON lines. Normally driven
//! by `run.py`, which builds this package and adds `peak_rss_mib`.

mod burst;
mod clock;
mod harness;
mod lazy;
mod paper;
mod resolve;
mod stream;
mod tracer;

use std::fmt::Write as _;

use harness::{Ctx, Outcome, ACTORS, THREADS};

/// A workload: name, why it exists, entry point.
type Workload = (&'static str, &'static str, fn(&mut Ctx) -> Outcome);

const WORKLOADS: [Workload; 4] = [
    ("query-stream", stream::WHY, stream::run),
    ("actor-burst", burst::WHY, burst::run),
    ("lazy-converge", lazy::WHY, lazy::run),
    ("resolve-churn", resolve::WHY, resolve::run),
];

/// End-to-end metrics gated by `BENCHMARK.json`, common to every workload
/// (`peak_rss_mib` is added by the runner, which observes the process).
const GATED_E2E: [&str; 2] = ["setup_s", "cycles_per_s"];

/// Per-layer metrics printed in the traced result, common to every workload.
const GATED_LAYERS: [&str; 7] = [
    "trace.generate_ms",
    "trace.dynamics_generate_ms",
    "similarity.index_build_ms",
    "similarity.index_bytes",
    "bench.check_ms",
    "bench.trace_overhead",
    "bench.span_coverage",
];

/// Top-level spans must cover at least this share of every traced interval.
const MIN_SPAN_COVERAGE: f64 = 0.95;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} wants a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, not {value:?}")),
                }
            }
            "--spans" => args.spans = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("p3q-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(&(name, why, run)) = WORKLOADS.iter().find(|w| w.0 == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        eprintln!(
            "p3q-perfbench: unknown workload {:?}; one of {names:?}",
            args.workload
        );
        std::process::exit(2);
    };

    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace);
    let mut out = run(&mut ctx);
    if args.trace {
        let coverage = out.layers.get("bench.span_coverage").map_or(0.0, |m| m.0);
        out.check(
            &format!("top-level spans cover >= {MIN_SPAN_COVERAGE} of every traced interval"),
            0,
            u64::from(coverage < MIN_SPAN_COVERAGE),
        );
    }
    out.e2e.put(
        "failed_ratio",
        out.failed as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    let correct = out.failed == 0 && out.attempted > 0;

    if let Some(path) = &args.spans {
        std::fs::write(path, ctx.tr.to_jsonl()).expect("writing the span file");
    }

    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut setting = format!(
        "\"workload\": {}, \"why\": {}, \"seed\": {}, \"seconds\": {}, \"traced\": {}, \
         \"nproc\": {nproc}, \"threads\": {THREADS}, \"actors\": {ACTORS}",
        json_str(name),
        json_str(why),
        args.seed,
        args.seconds,
        args.trace,
    );
    for (key, value) in &out.setting {
        let _ = write!(setting, ", {}: {}", json_str(key), json_str(value));
    }
    let checks: Vec<String> = out.checks.iter().map(|c| json_str(c)).collect();
    let ms_list = |v: &[f64]| {
        v.iter()
            .map(|ms| format!("{ms:.1}"))
            .collect::<Vec<_>>()
            .join(", ")
    };
    println!(
        "{{\"report\": {{\"setting\": {{{setting}}}, \"end_to_end\": {}, \"per_layer\": {}, \
         \"checks\": [{}], \"counters_digest\": \"{:016x}\", \"setup_ms\": [{}], \
         \"untraced_rep_work_ms\": [{}], \"traced_rep_work_ms\": [{}]}}}}",
        out.e2e.to_json(),
        out.layers.to_json(),
        checks.join(", "),
        out.digest,
        ms_list(&ctx.setup_ms),
        ms_list(&ctx.untraced_work_ms),
        ms_list(&ctx.traced_work_ms),
    );
    let metrics = if args.trace {
        out.layers.select(&GATED_LAYERS)
    } else {
        out.e2e.select(&GATED_E2E)
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted,
        out.failed,
        metrics.to_json(),
    );
}
