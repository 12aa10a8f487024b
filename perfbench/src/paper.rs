//! The world shared by the three `paper-delicious` workloads: trace, index,
//! ideal networks, a query sample and a simulator prepared for the
//! workload's protocol. Every call into a layer is a span.

use p3q::bandwidth::category;
use p3q::prelude::*;
use p3q_sim::Category;
use p3q_trace::{Scenario, ScenarioConfig, TraceShape};

use crate::harness::{spread, Metrics, THREADS};
use crate::tracer::Tracer;

/// Population of the `paper-delicious` workloads.
pub const USERS: usize = 10_000;

/// The eight categories of the `p3q::bandwidth` model.
pub const CATEGORIES: [Category; 8] = [
    category::RPS_DIGESTS,
    category::LAZY_DIGESTS,
    category::LAZY_COMMON,
    category::LAZY_PROFILES,
    category::EAGER_FORWARDED,
    category::EAGER_RETURNED,
    category::EAGER_PARTIAL_RESULTS,
    category::EAGER_MAINTENANCE,
];

/// How the simulator is prepared after construction.
#[derive(Debug, Clone, Copy)]
pub enum Prep {
    /// Ideal personal networks, then this many lazy cycles (eager workloads).
    IdealWarmup(u64),
    /// Random views only (the lazy workload converges from scratch).
    Bootstrap,
}

/// Everything a `paper-delicious` workload starts from.
pub struct PaperWorld {
    /// Protocol configuration (`P3qConfig::laptop_scale`).
    pub cfg: P3qConfig,
    /// The generated dataset.
    pub dataset: Dataset,
    /// Ideal personal networks (oracle for recall and success ratio).
    pub ideal: IdealNetworks,
    /// The workload's queries, spread over the population.
    pub queries: Vec<Query>,
    /// The prepared simulator every repetition clones.
    pub sim: Simulator<P3qNode>,
    /// `ActionIndex::memory().total_bytes`.
    pub index_bytes: usize,
}

/// Builds the world from `seed`: `budget` stored profiles per user and
/// `queries` queries (one per distinct querier).
pub fn build(tr: &mut Tracer, seed: u64, budget: usize, queries: usize, prep: Prep) -> PaperWorld {
    let cfg = P3qConfig::laptop_scale();
    let scenario = ScenarioConfig::new(Scenario::PaperDelicious, USERS, seed)
        .with_shape(TraceShape::FixedLaptop);
    let trace = tr.span("trace.generate", |_| {
        TraceGenerator::new(scenario.trace_config()).generate_with_threads(THREADS)
    });
    // The scenario's change schedule is materialized as every harness world
    // does; these workloads do not apply it.
    let schedule = tr.span("trace.dynamics_generate", |_| {
        scenario
            .dynamics_plan()
            .materialize_with_threads(&trace, THREADS)
    });
    drop(schedule);
    let dataset = trace.dataset;
    let index = tr.span("similarity.index_build", |_| ActionIndex::build(&dataset));
    let ideal = tr.span("baseline.ideal_compute", |_| {
        IdealNetworks::compute_with_index_threads(
            &dataset,
            cfg.personal_network_size,
            &index,
            THREADS,
        )
    });
    let index_bytes = index.memory().total_bytes;
    drop(index);
    let queries = if queries == 0 {
        Vec::new()
    } else {
        let candidates: Vec<Query> = tr.span("trace.query_generate", |_| {
            QueryGenerator::new(seed ^ 0x5EED)
                .one_query_per_user(&dataset)
                .into_iter()
                .filter(|q| !ideal.network_of(q.querier).is_empty())
                .collect()
        });
        spread(candidates.len(), queries)
            .into_iter()
            .map(|i| candidates[i].clone())
            .collect()
    };
    let budgets = vec![budget; dataset.num_users()];
    let mut sim = tr.span("experiment.build_simulator", |_| {
        build_simulator_with_budgets(&dataset, &cfg, &budgets, seed ^ 0x51A1)
    });
    match prep {
        Prep::IdealWarmup(cycles) => {
            tr.span("experiment.init_ideal", |_| {
                init_ideal_networks(&mut sim, &ideal)
            });
            tr.span("lazy.warmup", |_| {
                sim.drive(
                    &cfg.lazy(),
                    RunOptions::cycles(cycles).threads(THREADS),
                    |_, _| {},
                )
            });
        }
        Prep::Bootstrap => {
            let mut rng = sim.derived_rng(0xB007);
            tr.span("lazy.bootstrap_views", |_| {
                bootstrap_random_views_with_threads(&mut sim, &cfg, &mut rng, THREADS)
            });
        }
    }
    PaperWorld {
        cfg,
        dataset,
        ideal,
        queries,
        sim,
        index_bytes,
    }
}

/// Per-category `(bytes, messages)` of a bandwidth recorder.
pub fn traffic(bandwidth: &p3q_sim::BandwidthRecorder) -> Vec<(u64, u64)> {
    CATEGORIES
        .iter()
        .map(|&c| (bandwidth.category_bytes(c), bandwidth.category_messages(c)))
        .collect()
}

/// Centralized top-k references, keyed by index into the query list.
pub type References = [(usize, Vec<(ItemId, u32)>)];

/// Puts a summed `RunReport` as `sim.*` counters.
pub fn put_run_report(layers: &mut Metrics, report: &RunReport) {
    let r = &report.report;
    layers.put("sim.cycles", report.cycles_run as f64, "count");
    layers.put("sim.plans", r.plans as f64, "count");
    layers.put("sim.pair_exchanges", r.pair_exchanges as f64, "count");
    layers.put("sim.solo_steps", r.solo_steps as f64, "count");
    layers.put("sim.batches", r.batches as f64, "count");
    layers.put(
        "sim.plans_per_batch",
        r.plans as f64 / r.batches.max(1) as f64,
        "ratio",
    );
}

/// Digest of a repetition's deterministic counters: traffic per category,
/// the run report, workload-specific counters and a state fingerprint.
pub fn digest(traffic: &[(u64, u64)], report: &RunReport, extra: &[u64], fingerprint: u64) -> u64 {
    let mut h = Fnv::new();
    h.write_all(traffic.iter().flat_map(|&(b, m)| [b, m]));
    h.write_all([
        report.cycles_run,
        report.report.plans as u64,
        report.report.pair_exchanges as u64,
        report.report.solo_steps as u64,
        report.report.batches as u64,
    ]);
    h.write_all(extra.iter().copied());
    h.write_u64(fingerprint);
    h.finish()
}

/// Puts `bandwidth.<category>.bytes` / `.messages` for the traffic between
/// two snapshots into `layers`, and returns the byte delta of the categories
/// whose name starts with one of `prefixes`.
pub fn traffic_delta(
    before: &[(u64, u64)],
    after: &[(u64, u64)],
    layers: &mut Metrics,
    prefixes: &[&str],
) -> u64 {
    let mut selected = 0;
    for ((name, b), a) in CATEGORIES.iter().zip(before).zip(after) {
        let bytes = a.0 - b.0;
        layers.put(format!("bandwidth.{name}.bytes"), bytes as f64, "bytes");
        layers.put(
            format!("bandwidth.{name}.messages"),
            (a.1 - b.1) as f64,
            "count",
        );
        if prefixes.iter().any(|p| name.starts_with(p)) {
            selected += bytes;
        }
    }
    selected
}

/// Mean recall@k of each sampled query's current top-k against the
/// centralized reference, and the sampled queries (indices into `issued`)
/// whose exhaustive top-k falls short of recall 1.
pub fn recall_check(
    sim: &mut Simulator<P3qNode>,
    world: &PaperWorld,
    issued: &[(usize, QueryId)],
    references: &References,
) -> (f64, Vec<usize>) {
    let k = world.cfg.top_k;
    let mut recall_sum = 0.0;
    let mut short = Vec::new();
    for (i, reference) in references {
        let (querier, id) = issued[*i];
        let Some(state) = sim.node_mut(querier).querier_states.get_mut(&id) else {
            short.push(*i);
            continue;
        };
        let current: Vec<ItemId> = state.current_topk(k).iter().map(|r| r.item).collect();
        recall_sum += recall_at_k(&current, reference);
        let exhaustive: Vec<ItemId> = state
            .nra
            .topk_exhaustive(k)
            .iter()
            .map(|r| r.item)
            .collect();
        if recall_at_k(&exhaustive, reference) < 1.0 {
            short.push(*i);
        }
    }
    (recall_sum / references.len().max(1) as f64, short)
}

/// Centralized top-k references for the queries at `indices` of `queries`,
/// computed on [`THREADS`] threads.
pub fn references(
    world: &PaperWorld,
    queries: &[Query],
    indices: &[usize],
) -> Vec<(usize, Vec<(ItemId, u32)>)> {
    let k = world.cfg.top_k;
    let chunk = indices.len().div_ceil(THREADS).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = indices
            .chunks(chunk)
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| {
                            (
                                i,
                                centralized_topk(&world.dataset, &world.ideal, &queries[i], k),
                            )
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("reference worker panicked"))
            .collect()
    })
}
