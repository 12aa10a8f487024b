//! What every workload shares: the fixed execution setting, repeated set-up,
//! the repetition loop, named metrics and small statistics helpers.

use std::fmt::Write as _;

use crate::tracer::Tracer;

/// Worker threads handed to every `*_with_threads` call and to
/// `RunOptions::threads`, so `P3Q_THREADS` cannot change what is measured.
pub const THREADS: usize = 2;
/// Shard actors of the transport runtime.
pub const ACTORS: usize = 2;
/// How many times a run builds its workload's world; `setup_s` is the median.
pub const SETUP_ROUNDS: usize = 3;

/// Named metrics with units, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds (or replaces) a metric.
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        match self.0.iter_mut().find(|m| m.0 == name) {
            Some(slot) => *slot = (name, value, unit),
            None => self.0.push((name, value, unit)),
        }
    }

    /// A metric's value and unit.
    pub fn get(&self, name: &str) -> Option<(f64, &'static str)> {
        self.0
            .iter()
            .find(|m| m.0 == name)
            .map(|(_, value, unit)| (*value, *unit))
    }

    /// The metrics named in `names`, in that order; panics on a missing one.
    pub fn select(&self, names: &[&str]) -> Metrics {
        let mut out = Metrics::default();
        for &name in names {
            let (value, unit) = self
                .get(name)
                .unwrap_or_else(|| panic!("workload did not produce metric {name}"));
            out.put(name, value, unit);
        }
        out
    }

    /// Adds (or replaces) every metric of `other`.
    pub fn extend(&mut self, other: &Metrics) {
        for (name, value, unit) in &other.0 {
            self.put(name.clone(), *value, unit);
        }
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// What a workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, lazy cycles, resolve requests and
    /// change batches).
    pub attempted: u64,
    /// Operations that failed a correctness check.
    pub failed: u64,
    /// The workload's setting, recorded in the result.
    pub setting: Vec<(&'static str, String)>,
    /// End-to-end metrics (the gated ones and the workload's own).
    pub e2e: Metrics,
    /// Per-layer metrics (from traced repetitions).
    pub layers: Metrics,
    /// Digest of every deterministic counter the run produced.
    pub digest: u64,
    /// Human-readable check results.
    pub checks: Vec<String>,
}

impl Outcome {
    /// Records a check over `attempted` operations of which `failed` failed.
    pub fn check(&mut self, name: &str, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
        let verdict = if failed == 0 { "ok" } else { "FAILED" };
        self.checks.push(format!(
            "{name}: {verdict} ({failed} of {attempted} failed)"
        ));
    }

    /// Records the checks of a run: the first repetition's `ops` operations
    /// with `first_failed` failures, then every later repetition's — the
    /// same failures if it reproduces the first one's counter digest, all
    /// `ops` otherwise.
    pub fn check_reps(&mut self, name: &str, ops: u64, first_failed: u64, digests: &[u64]) {
        self.check(name, ops, first_failed);
        for &digest in &digests[1..] {
            let failed = if digest == digests[0] {
                first_failed
            } else {
                ops
            };
            self.check(
                "repetition reproduces the first one's counters",
                ops,
                failed,
            );
        }
        self.digest = digests[0];
    }
}

/// Timing of one repetition.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepTimes {
    /// Time spent in the calls the end-to-end metrics time.
    pub work_ms: f64,
    /// Time spent checking outputs (kept out of every timed metric).
    pub check_ms: f64,
}

/// The run's context: settings, tracer and what the repetition loop saw.
pub struct Ctx {
    /// Workload seed.
    pub seed: u64,
    /// Measuring budget for the repetition loop.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub traced: bool,
    /// The span recorder.
    pub tr: Tracer,
    /// Wall time of each set-up round, in milliseconds.
    pub setup_ms: Vec<f64>,
    /// Work time of the untraced repetitions after the first.
    pub untraced_work_ms: Vec<f64>,
    /// Work time of the traced repetitions.
    pub traced_work_ms: Vec<f64>,
    /// Share of each traced interval covered by top-level spans.
    pub coverage: Vec<f64>,
    /// Total checking time.
    pub check_ms: f64,
    /// Indices of the traced repetitions.
    pub traced_reps: Vec<usize>,
}

impl Ctx {
    /// A context for one run.
    pub fn new(seed: u64, seconds: f64, traced: bool) -> Self {
        Self {
            seed,
            seconds,
            traced,
            tr: Tracer::new(traced),
            setup_ms: Vec::new(),
            untraced_work_ms: Vec::new(),
            traced_work_ms: Vec::new(),
            coverage: Vec::new(),
            check_ms: 0.0,
            traced_reps: Vec::new(),
        }
    }

    /// Builds the workload's world [`SETUP_ROUNDS`] times, dropping each
    /// before the next so memory holds one, and keeps the last.
    pub fn setup<W>(&mut self, mut build: impl FnMut(&mut Tracer, u64) -> W) -> W {
        let mut world = None;
        for _ in 0..SETUP_ROUNDS {
            drop(world.take());
            let start = self.tr.now_ms();
            world = Some(build(&mut self.tr, self.seed));
            let end = self.tr.now_ms();
            self.setup_ms.push(end - start);
            if self.traced {
                self.coverage
                    .push(self.tr.top_level_ms(start, end) / (end - start));
            }
        }
        world.expect("at least one set-up round")
    }

    /// Runs repetitions of the workload. The first warms caches and the
    /// allocator and runs the output checks; it is timed for nothing. Then
    /// repetitions run until `seconds` of them are spent: at least two, and
    /// none that is expected to overrun. In the traced run odd repetitions
    /// are traced and even ones are not, for the overhead ratio.
    pub fn repeat(&mut self, mut rep: impl FnMut(usize, &mut Tracer) -> RepTimes) {
        let budget_ms = self.seconds * 1e3;
        let mut spent_ms = 0.0;
        let mut reps = 0;
        loop {
            let traced = self.is_traced_rep(reps);
            self.tr.set_on(traced);
            let t0 = self.tr.now_ms();
            let times = rep(reps, &mut self.tr);
            let t1 = self.tr.now_ms();
            self.check_ms += times.check_ms;
            if traced {
                self.traced_work_ms.push(times.work_ms);
                self.traced_reps.push(reps);
                self.coverage.push(self.tr.top_level_ms(t0, t1) / (t1 - t0));
            } else if reps > 0 {
                self.untraced_work_ms.push(times.work_ms);
            }
            if reps > 0 {
                spent_ms += t1 - t0;
            }
            reps += 1;
            if reps >= 3 && spent_ms + (t1 - t0 - times.check_ms) > budget_ms {
                break;
            }
        }
        self.tr.set_on(self.traced);
    }

    /// Whether repetition `rep` is traced.
    pub fn is_traced_rep(&self, rep: usize) -> bool {
        self.traced && rep % 2 == 1
    }

    /// The repetitions the end-to-end metrics are taken from: every
    /// untraced one after the first.
    pub fn measured<'a, R>(&self, reps: &'a [R]) -> Vec<&'a R> {
        (1..reps.len())
            .filter(|&i| !self.is_traced_rep(i))
            .map(|i| &reps[i])
            .collect()
    }

    /// The traced repetitions.
    pub fn traced<'a, R>(&self, reps: &'a [R]) -> Vec<&'a R> {
        self.traced_reps.iter().map(|&i| &reps[i]).collect()
    }

    /// Puts `<span>_ms_p50`, `<span>_ms_p99` and `<span>_ms_total` (per
    /// traced repetition) of the spans called `span`.
    pub fn put_span_stats(&self, layers: &mut Metrics, span: &'static str) {
        let ms = self.tr.durations(span);
        layers.put(format!("{span}_ms_p50"), percentile(&ms, 50.0), "ms");
        layers.put(format!("{span}_ms_p99"), percentile(&ms, 99.0), "ms");
        layers.put(
            format!("{span}_ms_total"),
            ms.iter().sum::<f64>() / self.traced_reps.len() as f64,
            "ms",
        );
    }

    /// Median duration of the spans called `span`, in microseconds.
    pub fn span_us_p50(&self, span: &str) -> f64 {
        median(&self.tr.durations(span)) * 1e3
    }

    /// Adds the metrics every workload reports: `setup_s` end to end, and
    /// per layer the set-up calls, checking time, tracing overhead and span
    /// coverage.
    pub fn common_metrics(&self, out: &mut Outcome) {
        out.e2e.put("setup_s", median(&self.setup_ms) / 1e3, "s");
        out.e2e
            .put("setup_rounds", self.setup_ms.len() as f64, "count");
        if !self.traced {
            return;
        }
        for (span, metric) in [
            ("trace.generate", "trace.generate_ms"),
            ("trace.dynamics_generate", "trace.dynamics_generate_ms"),
            ("trace.query_generate", "trace.query_generate_ms"),
            ("similarity.index_build", "similarity.index_build_ms"),
            ("baseline.ideal_compute", "baseline.ideal_compute_ms"),
            (
                "experiment.build_simulator",
                "experiment.build_simulator_ms",
            ),
            ("experiment.init_ideal", "experiment.init_ideal_ms"),
            ("lazy.bootstrap_views", "lazy.bootstrap_views_ms"),
            ("lazy.warmup", "lazy.warmup_ms"),
        ] {
            let samples = self.tr.durations(span);
            if !samples.is_empty() {
                out.layers.put(metric, median(&samples), "ms");
            }
        }
        out.layers.put("bench.check_ms", self.check_ms, "ms");
        out.layers.put(
            "bench.trace_overhead",
            median(&self.traced_work_ms) / median(&self.untraced_work_ms),
            "ratio",
        );
        out.layers.put(
            "bench.span_coverage",
            self.coverage.iter().copied().fold(f64::INFINITY, f64::min),
            "ratio",
        );
        for (layer, ms) in self.tr.self_ms_by_layer() {
            out.layers.put(format!("self_ms.{layer}"), ms, "ms");
        }
    }
}

/// Puts the cycle metrics of the measured repetitions into `e2e`:
/// `cycles_per_s` over the per-cycle median across repetitions (every
/// repetition runs the same cycles, so a stall in one repetition's cycle
/// does not move it), and `cycle_ms_p50` / `cycle_ms_p90` over every
/// measured cycle.
pub fn put_cycle_metrics(e2e: &mut Metrics, reps: &[&[f64]]) {
    let cycles = reps.iter().map(|r| r.len()).min().unwrap_or(0);
    let typical_ms: f64 = (0..cycles)
        .map(|k| median(&reps.iter().map(|r| r[k]).collect::<Vec<_>>()))
        .sum();
    let pooled: Vec<f64> = reps.iter().flat_map(|r| r.iter().copied()).collect();
    e2e.put("cycles_per_s", cycles as f64 / (typical_ms / 1e3), "1/s");
    e2e.put("cycle_ms_p50", percentile(&pooled, 50.0), "ms");
    e2e.put("cycle_ms_p90", percentile(&pooled, 90.0), "ms");
    e2e.put("cycle_samples", pooled.len() as f64, "count");
    e2e.put("measured_reps", reps.len() as f64, "count");
}

/// The `p`-th percentile (0..=100) by nearest rank.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median (mean of the two middle samples for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The arithmetic mean.
pub fn mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `stride`-spaced sample of `0..len` with at most `limit` entries.
pub fn spread(len: usize, limit: usize) -> Vec<usize> {
    if len <= limit {
        return (0..len).collect();
    }
    (0..limit).map(|i| i * len / limit).collect()
}
