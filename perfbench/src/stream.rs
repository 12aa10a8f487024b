//! `query-stream`: 50 new queries at the start of every cycle for 40
//! cycles (open loop on the cycle axis), then drain until all complete.

use std::collections::{BTreeMap, BTreeSet};

use p3q::prelude::*;

use crate::harness::{
    mean, percentile, put_cycle_metrics, spread, Ctx, Metrics, Outcome, RepTimes, THREADS,
};
use crate::paper::{self, PaperWorld, Prep};
use crate::tracer::Tracer;

/// Why the workload exists.
pub const WHY: &str = "eager gossip, querier-side NRA and the simulator do almost all of the \
                       work; similarity runs only in set-up and the resolver never runs";

const STORED_PROFILES: usize = 4;
const WARMUP_CYCLES: u64 = 3;
const QUERIES_PER_CYCLE: usize = 50;
const ISSUE_CYCLES: usize = 40;
const MAX_DRAIN_CYCLES: usize = 60;
const CHECK_SAMPLE: usize = 100;

/// Wall-clock marks of one cycle, in tracer milliseconds.
#[derive(Debug, Clone, Copy, Default)]
struct Marks {
    issue_start: f64,
    issue_end: f64,
    drive_end: f64,
}

/// What one repetition produced.
struct Rep {
    cycle_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    latency_cycles: Vec<u64>,
    failed: BTreeSet<usize>,
    eager_bytes: u64,
    report: RunReport,
    in_flight_max: usize,
    reached_mean: f64,
    node_bytes: usize,
    digest: u64,
    recall: Option<f64>,
    layers: Metrics,
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let queries = QUERIES_PER_CYCLE * ISSUE_CYCLES;
    let world = ctx.setup(|tr, seed| {
        paper::build(
            tr,
            seed,
            STORED_PROFILES,
            queries,
            Prep::IdealWarmup(WARMUP_CYCLES),
        )
    });
    let sample = spread(world.queries.len(), CHECK_SAMPLE);
    let (references, ref_ms) = ctx.tr.timed("bench.check", |_| {
        paper::references(&world, &world.queries, &sample)
    });
    ctx.check_ms += ref_ms;

    let mut reps: Vec<Rep> = Vec::new();
    ctx.repeat(|i, tr| {
        let (rep, check_ms) = run_rep(tr, &world, (i == 0).then_some(&references[..]));
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
            ("warmup_lazy_cycles", WARMUP_CYCLES.to_string()),
            ("queries_per_cycle", QUERIES_PER_CYCLE.to_string()),
            ("issue_cycles", ISSUE_CYCLES.to_string()),
            ("queries_issued", world.queries.len().to_string()),
            ("recall_sample", sample.len().to_string()),
            ("loop", "open loop on the cycle axis: queries are issued at the start of every cycle, whether or not earlier ones finished".into()),
        ],
        ..Outcome::default()
    };
    let first = &reps[0];
    let recall = first.recall.expect("the first repetition checks recall");
    out.check_reps(
        "queries complete by drain end, exhaustive recall@k == 1 on the sample",
        world.queries.len() as u64,
        first.failed.len() as u64,
        &reps.iter().map(|r| r.digest).collect::<Vec<_>>(),
    );

    let plain = ctx.measured(&reps);
    put_cycle_metrics(
        &mut out.e2e,
        &plain.iter().map(|r| &r.cycle_ms[..]).collect::<Vec<_>>(),
    );
    let latency_ms: Vec<f64> = plain
        .iter()
        .flat_map(|r| r.latency_ms.iter().copied())
        .collect();
    let latency_cycles: Vec<f64> = first.latency_cycles.iter().map(|&c| c as f64).collect();
    out.e2e
        .put("query_latency_ms_p50", percentile(&latency_ms, 50.0), "ms");
    out.e2e
        .put("query_latency_ms_p99", percentile(&latency_ms, 99.0), "ms");
    out.e2e
        .put("query_latency_samples", latency_ms.len() as f64, "count");
    out.e2e.put(
        "query_latency_cycles_p99",
        percentile(&latency_cycles, 99.0),
        "cycles",
    );
    out.e2e.put("recall_at_10", recall, "ratio");
    out.e2e.put(
        "bytes_per_query",
        first.eager_bytes as f64 / world.queries.len() as f64,
        "bytes",
    );

    if ctx.traced {
        let r = ctx.traced(&reps)[0];
        let layers = &mut out.layers;
        ctx.put_span_stats(layers, "sim.drive");
        paper::put_run_report(layers, &r.report);
        layers.put("sim.node_bytes", r.node_bytes as f64, "bytes");
        layers.put(
            "eager.issue_query_us_p50",
            ctx.span_us_p50("eager.issue_query"),
            "us",
        );
        layers.put("query.reached_users_mean", r.reached_mean, "count");
        layers.put("query.in_flight_max", r.in_flight_max as f64, "count");
        layers.extend(&r.layers);
        layers.put("similarity.index_bytes", world.index_bytes as f64, "bytes");
    }
    ctx.common_metrics(&mut out);
    out
}

/// One repetition on a clone of the prepared simulator. With `references`
/// it also checks recall (the check time is returned separately).
fn run_rep(
    tr: &mut Tracer,
    world: &PaperWorld,
    references: Option<&paper::References>,
) -> (Rep, f64) {
    let cfg = &world.cfg;
    let eager = cfg.eager();
    let mut sim = tr.span("bench.clone", |_| world.sim.clone());
    let before = paper::traffic(&sim.bandwidth);
    let mut issued: Vec<(usize, QueryId)> = Vec::with_capacity(world.queries.len());
    let mut marks: BTreeMap<u64, Marks> = BTreeMap::new();
    let mut cycle_ms = Vec::new();
    let mut total = RunReport::default();
    let mut in_flight_max = 0;
    for c in 0..ISSUE_CYCLES + MAX_DRAIN_CYCLES {
        let issue_start = tr.now_ms();
        if c < ISSUE_CYCLES {
            for q in c * QUERIES_PER_CYCLE..(c + 1) * QUERIES_PER_CYCLE {
                let query = &world.queries[q];
                let querier = query.querier.index();
                let id = QueryId(q as u64);
                tr.span("eager.issue_query", |_| {
                    issue_query(&mut sim, querier, id, query.clone(), cfg)
                });
                issued.push((querier, id));
            }
        }
        let issue_end = tr.now_ms();
        let issue_cycle = sim.cycle();
        let report = tr.span("sim.drive", |_| {
            sim.drive(&eager, RunOptions::cycles(1).threads(THREADS), |_, _| {})
        });
        let drive_end = tr.now_ms();
        total.cycles_run += report.cycles_run;
        total.report.absorb(report.report);
        cycle_ms.push(drive_end - issue_start);
        let mark = marks.entry(issue_cycle).or_default();
        mark.issue_start = issue_start;
        mark.issue_end = issue_end;
        marks.entry(sim.cycle()).or_default().drive_end = drive_end;
        let done = tr.span("query.poll", |_| {
            issued
                .iter()
                .filter(|&&(querier, id)| {
                    querier_state(&sim, querier, id).is_some_and(|s| s.completed_cycle.is_some())
                })
                .count()
        });
        in_flight_max = in_flight_max.max(issued.len() - done);
        if c + 1 >= ISSUE_CYCLES && done == world.queries.len() {
            break;
        }
    }

    let check_start = tr.now_ms();
    let (latency_ms, latency_cycles, mut failed, reached) = tr.span("bench.check", |_| {
        let mut latency_ms = Vec::new();
        let mut latency_cycles = Vec::new();
        let mut incomplete = BTreeSet::new();
        let mut reached = Vec::new();
        for (i, &(querier, id)) in issued.iter().enumerate() {
            let state = querier_state(&sim, querier, id).expect("issued query has state");
            reached.push(state.reached_users.len() as f64);
            let Some(done) = state.completed_cycle else {
                incomplete.insert(i);
                continue;
            };
            let start = marks[&state.started_cycle];
            let end = if done == state.started_cycle {
                start.issue_end
            } else {
                marks[&done].drive_end
            };
            latency_ms.push(end - start.issue_start);
            latency_cycles.push(done - state.started_cycle);
        }
        (latency_ms, latency_cycles, incomplete, mean(&reached))
    });
    let (after, node_bytes, digest) = tr.span("bench.check", |_| {
        let after = paper::traffic(&sim.bandwidth);
        let node_bytes = sim.node_store().storage_bytes(P3qNode::storage_bytes);
        let digest = paper::digest(
            &after,
            &total,
            &latency_cycles,
            fingerprint_chain(sim.nodes()),
        );
        (after, node_bytes, digest)
    });
    let mut layers = Metrics::default();
    let eager_bytes = paper::traffic_delta(&before, &after, &mut layers, &["eager_"]);
    let recall = references.map(|refs| {
        let (recall, short) = tr.span("bench.check", |_| {
            paper::recall_check(&mut sim, world, &issued, refs)
        });
        failed.extend(short);
        recall
    });
    let check_ms = tr.now_ms() - check_start;
    tr.span("bench.drop", |_| drop(sim));
    let rep = Rep {
        cycle_ms,
        latency_ms,
        latency_cycles,
        failed,
        eager_bytes,
        report: total,
        in_flight_max,
        reached_mean: reached,
        node_bytes,
        digest,
        recall,
        layers,
    };
    (rep, check_ms)
}
