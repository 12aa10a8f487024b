//! `resolve-churn`: the `query-hotspot` querier schedule resolved through
//! `OnDemandNetworks`, with a `paper_day` change batch landing every ten
//! cycles (apply, index patch, cache invalidation). No simulator runs.

use p3q::prelude::*;
use p3q_sim::stream_seed;
use p3q_trace::{ChangeBatch, Scenario, ScenarioConfig};

use crate::harness::{
    mean, median, percentile, put_cycle_metrics, Ctx, Outcome, RepTimes, THREADS,
};
use crate::tracer::Tracer;

/// Why the workload exists.
pub const WHY: &str = "the only workload without a simulator; it reads similarity (resolves) \
                       and writes it (index patches), so a change that speeds one up and slows \
                       the other shows";

const USERS: usize = 50_000;
/// Two change batches per repetition; short enough that a run fits several
/// repetitions.
const CYCLES: usize = 20;
const BATCH_INTERVAL: usize = 10;
/// The first batch lands at this cycle, once the cache has warmed.
const FIRST_BATCH: usize = 5;
/// Every this-many-th querier of a cycle is checked against a full sweep.
const CHECK_EVERY: usize = 8;

/// The inputs every repetition starts from.
struct World {
    dataset: Dataset,
    index: ActionIndex,
    batches: Vec<ChangeBatch>,
    schedule: Vec<Vec<UserId>>,
    network_size: usize,
}

/// What one repetition produced.
struct Rep {
    cycle_ms: Vec<f64>,
    resolve_ms: Vec<f64>,
    update_ms: Vec<f64>,
    read_ms: f64,
    stats: ResolveStats,
    changed_users: Vec<f64>,
    requests: u64,
    mismatches: u64,
    digest: u64,
}

fn batch_at(cycle: usize) -> Option<usize> {
    (cycle % BATCH_INTERVAL == FIRST_BATCH).then_some(cycle / BATCH_INTERVAL)
}

fn build(tr: &mut Tracer, seed: u64) -> World {
    let scenario =
        ScenarioConfig::new(Scenario::QueryHotspot, USERS, seed).with_horizon(CYCLES as u64);
    let trace = tr.span("trace.generate", |_| {
        TraceGenerator::new(scenario.trace_config()).generate_with_threads(THREADS)
    });
    let batches = tr.span("trace.dynamics_generate", |_| {
        (0..CYCLES)
            .filter_map(batch_at)
            .map(|i| {
                let cfg = DynamicsConfig::paper_day(stream_seed(seed ^ 0xBA7C, i as u64));
                DynamicsGenerator::new(cfg).generate_with_threads(&trace, THREADS)
            })
            .collect()
    });
    let schedule = tr.span("trace.query_generate", |_| scenario.querier_schedule());
    let dataset = trace.dataset;
    let index = tr.span("similarity.index_build", |_| ActionIndex::build(&dataset));
    World {
        dataset,
        index,
        batches,
        schedule,
        network_size: P3qConfig::laptop_scale().personal_network_size,
    }
}

/// Runs the workload.
pub fn run(ctx: &mut Ctx) -> Outcome {
    let world = ctx.setup(build);
    let mut reps: Vec<Rep> = Vec::new();
    ctx.repeat(|i, tr| {
        let (rep, check_ms) = run_rep(tr, &world, i == 0);
        let times = RepTimes {
            work_ms: rep.cycle_ms.iter().sum(),
            check_ms,
        };
        reps.push(rep);
        times
    });

    let mut out = Outcome {
        setting: vec![
            ("users", USERS.to_string()),
            ("scenario", "query-hotspot".into()),
            ("cycles", CYCLES.to_string()),
            ("batch_interval", BATCH_INTERVAL.to_string()),
            ("first_batch_cycle", FIRST_BATCH.to_string()),
            ("batches", world.batches.len().to_string()),
            ("network_size", world.network_size.to_string()),
            (
                "queriers_per_cycle_mean",
                format!(
                    "{:.1}",
                    mean(
                        &world
                            .schedule
                            .iter()
                            .map(|q| q.len() as f64)
                            .collect::<Vec<_>>()
                    )
                ),
            ),
            (
                "check_sample",
                format!("every {CHECK_EVERY}th querier of each cycle, first repetition"),
            ),
        ],
        ..Outcome::default()
    };
    let first = &reps[0];
    out.check_reps(
        "resolved networks equal ActionIndex::top_similar over the patched index",
        first.requests + world.batches.len() as u64,
        first.mismatches,
        &reps.iter().map(|r| r.digest).collect::<Vec<_>>(),
    );

    let plain = ctx.measured(&reps);
    put_cycle_metrics(
        &mut out.e2e,
        &plain.iter().map(|r| &r.cycle_ms[..]).collect::<Vec<_>>(),
    );
    let pooled = |f: fn(&Rep) -> &Vec<f64>| -> Vec<f64> {
        plain.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let resolve_ms = pooled(|r| &r.resolve_ms);
    let update_ms = pooled(|r| &r.update_ms);
    let read_share: Vec<f64> = plain
        .iter()
        .map(|r| r.read_ms / r.cycle_ms.iter().sum::<f64>())
        .collect();
    out.e2e
        .put("resolve_ms_p50", percentile(&resolve_ms, 50.0), "ms");
    out.e2e
        .put("resolve_ms_p99", percentile(&resolve_ms, 99.0), "ms");
    out.e2e
        .put("resolve_samples", resolve_ms.len() as f64, "count");
    out.e2e
        .put("update_ms_p50", percentile(&update_ms, 50.0), "ms");
    out.e2e
        .put("update_samples", update_ms.len() as f64, "count");
    out.e2e.put("read_share", median(&read_share), "ratio");

    if ctx.traced {
        let traced = ctx.traced(&reps);
        let us =
            |name: &str| -> Vec<f64> { ctx.tr.durations(name).iter().map(|ms| ms * 1e3).collect() };
        let (hit_us, miss_us) = (us("resolver.hit"), us("resolver.miss"));
        let s = traced[0].stats;
        let layers = &mut out.layers;
        if !hit_us.is_empty() {
            layers.put("resolver.hit_us_p50", percentile(&hit_us, 50.0), "us");
        }
        layers.put("resolver.miss_us_p50", percentile(&miss_us, 50.0), "us");
        layers.put("resolver.miss_us_p99", percentile(&miss_us, 99.0), "us");
        for (name, value) in [
            ("resolutions", s.resolutions),
            ("cache_hits", s.cache_hits),
            ("positions_scanned", s.positions_scanned),
            ("early_terminations", s.early_terminations),
            ("patched", s.patched),
            ("evicted", s.evicted),
        ] {
            layers.put(format!("resolver.{name}"), value as f64, "count");
        }
        let requests = (s.resolutions + s.cache_hits).max(1) as f64;
        layers.put(
            "resolver.hit_ratio",
            s.cache_hits as f64 / requests,
            "ratio",
        );
        layers.put(
            "resolver.positions_per_resolution",
            s.positions_scanned as f64 / s.resolutions.max(1) as f64,
            "count",
        );
        layers.put(
            "resolver.early_termination_ratio",
            s.early_terminations as f64 / s.resolutions.max(1) as f64,
            "ratio",
        );
        for (span, metric) in [
            ("trace.batch_apply", "trace.batch_apply_ms"),
            ("similarity.apply_deltas", "similarity.apply_deltas_ms"),
            (
                "resolver.apply_delta_outcome",
                "resolver.apply_delta_outcome_ms",
            ),
        ] {
            layers.put(metric, median(&ctx.tr.durations(span)), "ms");
        }
        layers.put(
            "similarity.changed_users",
            mean(&traced[0].changed_users),
            "count",
        );
        layers.put(
            "similarity.index_bytes",
            world.index.memory().total_bytes as f64,
            "bytes",
        );
    }
    ctx.common_metrics(&mut out);
    out
}

/// One repetition on clones of the dataset and index, with a fresh
/// resolver. With `check`, a sample of each cycle's resolved networks is
/// compared with a full sweep over the patched index.
fn run_rep(tr: &mut Tracer, world: &World, check: bool) -> (Rep, f64) {
    let (mut dataset, mut index) = tr.span("bench.clone", |_| {
        (world.dataset.clone(), world.index.clone())
    });
    let mut resolver = OnDemandNetworks::new(dataset.num_users(), world.network_size);
    let mut scratch = SimilarityScratch::new(dataset.num_users());
    let mut rep = Rep {
        cycle_ms: Vec::new(),
        resolve_ms: Vec::new(),
        update_ms: Vec::new(),
        read_ms: 0.0,
        stats: ResolveStats::default(),
        changed_users: Vec::new(),
        requests: 0,
        mismatches: 0,
        digest: 0,
    };
    let mut check_ms = 0.0;
    let mut hits = Fnv::new();
    for (cycle, queriers) in world.schedule.iter().enumerate() {
        let mut work_ms = 0.0;
        if let Some(b) = batch_at(cycle) {
            let batch = &world.batches[b];
            let (_, apply_ms) = tr.timed("trace.batch_apply", |_| batch.apply(&mut dataset));
            let (outcome, deltas_ms) = tr.timed("similarity.apply_deltas", |_| {
                index.apply_deltas(
                    batch
                        .changes
                        .iter()
                        .map(|c| (c.user, c.new_actions.as_slice())),
                )
            });
            let (_, invalidate_ms) = tr.timed("resolver.apply_delta_outcome", |_| {
                resolver.apply_delta_outcome(&dataset, &outcome, THREADS)
            });
            rep.changed_users.push(outcome.changed.len() as f64);
            let update = apply_ms + deltas_ms + invalidate_ms;
            rep.update_ms.push(update);
            work_ms += update;
        }
        for (j, &user) in queriers.iter().enumerate() {
            let hits_before = resolver.stats().cache_hits;
            let (_, ms) = tr.timed("resolver.resolve", |_| {
                resolver.resolve(&dataset, &index, user).len()
            });
            let hit = resolver.stats().cache_hits > hits_before;
            tr.rename_last(
                "resolver.resolve",
                if hit { "resolver.hit" } else { "resolver.miss" },
            );
            hits.write_u64(u64::from(hit));
            rep.resolve_ms.push(ms);
            rep.read_ms += ms;
            work_ms += ms;
            rep.requests += 1;
            if check && j % CHECK_EVERY == 0 {
                let (equal, ms) = tr.timed("bench.check", |_| {
                    let expected =
                        index.top_similar(&dataset, user, world.network_size, &mut scratch);
                    resolver.cached(user) == Some(&expected[..])
                });
                check_ms += ms;
                rep.mismatches += u64::from(!equal);
            }
        }
        rep.cycle_ms.push(work_ms);
    }
    rep.stats = resolver.stats();
    let (digest, ms) = tr.timed("bench.check", |_| {
        let s = rep.stats;
        let mut h = Fnv::new();
        h.write_u64(hits.finish());
        h.write_all(
            [
                s.resolutions,
                s.cache_hits,
                s.positions_scanned,
                s.early_terminations,
                s.patched,
                s.evicted,
            ]
            .map(|v| v as u64),
        );
        for user in dataset.users() {
            for &(peer, score) in resolver.cached(user).unwrap_or(&[]) {
                h.write_all([user.index() as u64, peer.index() as u64, score]);
            }
        }
        h.finish()
    });
    check_ms += ms;
    rep.digest = digest;
    tr.span("bench.drop", |_| drop((dataset, index, resolver)));
    (rep, check_ms)
}
