//! `lazy-converge`: lazy cycles only, from random views (paper Figure 2).

use p3q::prelude::*;

use crate::harness::{put_cycle_metrics, Ctx, Metrics, Outcome, RepTimes, THREADS};
use crate::paper::{self, PaperWorld, Prep};
use crate::tracer::Tracer;

/// Why the workload exists.
pub const WHY: &str = "the lazy protocol (digests, offers, profile scoring) and the parallel \
                       plan/commit engine do the work; no eager or resolver code runs";

const STORED_PROFILES: usize = 10;
/// Enough cycles for stores to fill (the per-cycle cost roughly triples),
/// few enough that a run fits several repetitions.
const CYCLES: u64 = 6;

/// What one repetition produced.
struct Rep {
    cycle_ms: Vec<f64>,
    success_ratio: f64,
    lazy_bytes: u64,
    report: RunReport,
    node_bytes: usize,
    digest: u64,
    layers: Metrics,
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let world = ctx.setup(|tr, seed| paper::build(tr, seed, STORED_PROFILES, 0, Prep::Bootstrap));
    let (initial_ratio, ms) = ctx.tr.timed("bench.check", |_| {
        average_success_ratio(world.sim.nodes().iter(), &world.ideal)
    });
    ctx.check_ms += ms;

    let mut reps: Vec<Rep> = Vec::new();
    ctx.repeat(|_, tr| {
        let (rep, check_ms) = run_rep(tr, &world);
        let times = RepTimes {
            work_ms: rep.cycle_ms.iter().sum(),
            check_ms,
        };
        reps.push(rep);
        times
    });

    let mut out = Outcome {
        setting: vec![
            ("users", paper::USERS.to_string()),
            ("stored_profiles", STORED_PROFILES.to_string()),
            ("lazy_cycles", CYCLES.to_string()),
            (
                "start",
                "random views from bootstrap_random_views, empty personal networks".into(),
            ),
        ],
        ..Outcome::default()
    };
    let first = &reps[0];
    // The first repetition's cycles fail if they did not raise the success
    // ratio above its starting value.
    let converged = first.success_ratio > initial_ratio;
    out.check_reps(
        "success ratio grows over the lazy cycles",
        CYCLES,
        if converged { 0 } else { CYCLES },
        &reps.iter().map(|r| r.digest).collect::<Vec<_>>(),
    );
    out.checks
        .push(format!("state fingerprint {:016x}", first.digest));

    let plain = ctx.measured(&reps);
    put_cycle_metrics(
        &mut out.e2e,
        &plain.iter().map(|r| &r.cycle_ms[..]).collect::<Vec<_>>(),
    );
    out.e2e.put("success_ratio", first.success_ratio, "ratio");
    out.e2e.put("success_ratio_initial", initial_ratio, "ratio");
    out.e2e.put(
        "bytes_per_node_cycle",
        first.lazy_bytes as f64 / (paper::USERS as f64 * CYCLES as f64),
        "bytes",
    );

    if ctx.traced {
        let r = ctx.traced(&reps)[0];
        let layers = &mut out.layers;
        ctx.put_span_stats(layers, "sim.drive");
        paper::put_run_report(layers, &r.report);
        layers.put("sim.node_bytes", r.node_bytes as f64, "bytes");
        layers.extend(&r.layers);
        layers.put("similarity.index_bytes", world.index_bytes as f64, "bytes");
    }
    ctx.common_metrics(&mut out);
    out
}

/// One repetition: `CYCLES` lazy cycles, one `drive` call each, on a clone
/// of the bootstrapped simulator.
fn run_rep(tr: &mut Tracer, world: &PaperWorld) -> (Rep, f64) {
    let lazy = world.cfg.lazy();
    let mut sim = tr.span("bench.clone", |_| world.sim.clone());
    let before = paper::traffic(&sim.bandwidth);
    let mut cycle_ms = Vec::new();
    let mut total = RunReport::default();
    for _ in 0..CYCLES {
        let (report, ms) = tr.timed("sim.drive", |_| {
            sim.drive(&lazy, RunOptions::cycles(1).threads(THREADS), |_, _| {})
        });
        cycle_ms.push(ms);
        total.cycles_run += report.cycles_run;
        total.report.absorb(report.report);
    }
    let check_start = tr.now_ms();
    let (success_ratio, after, digest) = tr.span("bench.check", |_| {
        let ratio = average_success_ratio(sim.nodes().iter(), &world.ideal);
        let after = paper::traffic(&sim.bandwidth);
        let digest = paper::digest(&after, &total, &[], fingerprint_chain(sim.nodes()));
        (ratio, after, digest)
    });
    let mut layers = Metrics::default();
    let lazy_bytes = paper::traffic_delta(&before, &after, &mut layers, &["lazy_", "rps_"]);
    let node_bytes = sim.node_store().storage_bytes(P3qNode::storage_bytes);
    let check_ms = tr.now_ms() - check_start;
    tr.span("bench.drop", |_| drop(sim));
    let rep = Rep {
        cycle_ms,
        success_ratio,
        lazy_bytes,
        report: total,
        node_bytes,
        digest,
        layers,
    };
    (rep, check_ms)
}
