//! `actor-burst`: 1000 queries issued at once (a flash crowd), driven by the
//! message-passing `TransportRuntime` until gossip goes idle, with the same
//! burst through `Simulator::drive` as the oracle.

use std::collections::BTreeSet;

use p3q::prelude::*;
use p3q_transport::{DeliverySchedule, TransportRuntime};

use crate::harness::{
    median, percentile, put_cycle_metrics, spread, Ctx, Metrics, Outcome, RepTimes, ACTORS, THREADS,
};
use crate::paper::{self, PaperWorld, Prep};
use crate::tracer::Tracer;

/// Why the workload exists.
pub const WHY: &str = "the only workload where the transport runtime works; query-stream runs \
                       the same protocol without it, so a runtime change predicts no change there";

const STORED_PROFILES: usize = 4;
const WARMUP_CYCLES: u64 = 3;
const BURST: usize = 1000;
const MAX_CYCLES: u64 = 60;
const CHECK_SAMPLE: usize = 100;

/// What one repetition produced.
struct Rep {
    cycle_ms: Vec<f64>,
    latency_ms: Vec<f64>,
    latency_cycles: Vec<u64>,
    failed: usize,
    eager_bytes: u64,
    report: RunReport,
    oracle_ms: f64,
    from_simulator_ms: f64,
    reached_mean: f64,
    digest: u64,
    recall: Option<f64>,
    layers: Metrics,
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let world = ctx.setup(|tr, seed| {
        paper::build(
            tr,
            seed,
            STORED_PROFILES,
            BURST,
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
            ("burst_queries", world.queries.len().to_string()),
            ("actors", ACTORS.to_string()),
            ("recall_sample", sample.len().to_string()),
            ("loop", "closed burst: all queries issued before the first cycle, then cycles until one commits no exchange".into()),
            ("cycle_timing", "one cycle per TransportRuntime::drive call: the runtime has no per-cycle observer and respawns its actors on every call".into()),
        ],
        ..Outcome::default()
    };
    let first = &reps[0];
    let recall = first.recall.expect("the first repetition checks recall");
    out.check_reps(
        "queries complete; runtime state, traffic and run report equal the simulator oracle",
        world.queries.len() as u64,
        first.failed as u64,
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
        let traced = ctx.traced(&reps);
        let r = traced[0];
        let per_rep = |f: fn(&Rep) -> f64| median(&traced.iter().map(|r| f(r)).collect::<Vec<_>>());
        let runtime_ms = per_rep(|r| r.cycle_ms.iter().sum());
        let oracle_ms = per_rep(|r| r.oracle_ms);
        let layers = &mut out.layers;
        ctx.put_span_stats(layers, "transport.drive");
        layers.put("transport.oracle_drive_ms_total", oracle_ms, "ms");
        layers.put("transport.overhead_ms", runtime_ms - oracle_ms, "ms");
        layers.put(
            "transport.from_simulator_ms",
            per_rep(|r| r.from_simulator_ms),
            "ms",
        );
        paper::put_run_report(layers, &r.report);
        layers.put(
            "eager.issue_query_us_p50",
            ctx.span_us_p50("eager.issue_query"),
            "us",
        );
        layers.put("query.reached_users_mean", r.reached_mean, "count");
        layers.put("query.in_flight_max", world.queries.len() as f64, "count");
        layers.extend(&r.layers);
        layers.put("similarity.index_bytes", world.index_bytes as f64, "bytes");
    }
    ctx.common_metrics(&mut out);
    out
}

/// One repetition: issue the burst into a clone of the prepared simulator,
/// snapshot it into the runtime and drive the runtime one cycle per call
/// until a cycle commits no exchange. With `references` the simulator then
/// drives the same burst as the oracle, and state, traffic, run report and
/// recall are checked.
fn run_rep(
    tr: &mut Tracer,
    world: &PaperWorld,
    references: Option<&paper::References>,
) -> (Rep, f64) {
    let cfg = &world.cfg;
    let eager = cfg.eager();
    let mut sim = tr.span("bench.clone", |_| world.sim.clone());
    let before = paper::traffic(&sim.bandwidth);
    let burst_start = tr.now_ms();
    let issued: Vec<(usize, QueryId)> = world
        .queries
        .iter()
        .enumerate()
        .map(|(q, query)| {
            let querier = query.querier.index();
            let id = QueryId(q as u64);
            tr.span("eager.issue_query", |_| {
                issue_query(&mut sim, querier, id, query.clone(), cfg)
            });
            (querier, id)
        })
        .collect();
    let issue_end = tr.now_ms();
    let start_cycle = sim.cycle();
    let (mut rt, from_simulator_ms) = tr.timed("transport.from_simulator", |_| {
        TransportRuntime::from_simulator(&mut sim, ACTORS, DeliverySchedule::canonical())
    });
    let mut cycle_ms = Vec::new();
    let mut cycle_end = vec![issue_end];
    let mut total = RunReport::default();
    while total.cycles_run < MAX_CYCLES {
        let (report, ms) = tr.timed("transport.drive", |_| {
            rt.drive(&eager, RunOptions::cycles(1))
        });
        cycle_ms.push(ms);
        cycle_end.push(tr.now_ms());
        total.cycles_run += report.cycles_run;
        total.report.absorb(report.report);
        if report.report.pair_exchanges == 0 {
            break;
        }
    }

    let check_start = tr.now_ms();
    // The oracle runs where its result is used: the first repetition's
    // check, and the traced repetitions' runtime-overhead figure.
    let oracle = (references.is_some() || tr.is_on()).then(|| {
        tr.timed("transport.oracle_drive", |_| {
            sim.drive(
                &eager,
                RunOptions::until_complete(MAX_CYCLES).threads(THREADS),
                |_, _| {},
            )
        })
    });
    let rt_nodes = tr.span("bench.check", |_| fingerprint_chain(rt.nodes()));
    let mut failed = BTreeSet::new();
    let mut latency_ms = Vec::new();
    let mut latency_cycles = Vec::new();
    let mut reached = 0.0;
    tr.span("bench.check", |_| {
        for (i, &(querier, id)) in issued.iter().enumerate() {
            let state = rt
                .node(querier)
                .querier_states
                .get(&id)
                .expect("issued query has state");
            reached += state.reached_users.len() as f64;
            match state.completed_cycle {
                Some(done) => {
                    let cycles = done - start_cycle;
                    latency_cycles.push(cycles);
                    latency_ms.push(cycle_end[cycles as usize] - burst_start);
                }
                None => {
                    failed.insert(i);
                }
            }
        }
    });
    let (after, digest) = tr.span("bench.check", |_| {
        let after = paper::traffic(&rt.bandwidth);
        let digest = paper::digest(&after, &total, &latency_cycles, rt_nodes);
        (after, digest)
    });
    let mut recall = None;
    if let (Some(refs), Some((report, _))) = (references, oracle) {
        let equal = tr.span("bench.check", |_| {
            report == total
                && sim.bandwidth.totals() == rt.bandwidth.totals()
                && paper::traffic(&sim.bandwidth) == after
                && fingerprint_chain(sim.nodes()) == rt_nodes
        });
        if !equal {
            failed.extend(0..issued.len());
        }
        let (mean, short) = tr.span("bench.check", |_| {
            paper::recall_check(&mut sim, world, &issued, refs)
        });
        failed.extend(short);
        recall = Some(mean);
    }
    let mut layers = Metrics::default();
    let eager_bytes = paper::traffic_delta(&before, &after, &mut layers, &["eager_"]);
    let node_bytes: usize = rt.nodes().map(P3qNode::storage_bytes).sum();
    layers.put("sim.node_bytes", node_bytes as f64, "bytes");
    let check_ms = tr.now_ms() - check_start;
    tr.span("bench.drop", |_| drop((rt, sim)));
    let rep = Rep {
        cycle_ms,
        latency_ms,
        latency_cycles,
        failed: failed.len(),
        eager_bytes,
        report: total,
        oracle_ms: oracle.map_or(0.0, |(_, ms)| ms),
        from_simulator_ms,
        reached_mean: reached / issued.len() as f64,
        digest,
        recall,
        layers,
    };
    (rep, check_ms)
}
