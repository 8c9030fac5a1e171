//! The repository benchmark: seeded `cold`, `sweep` and `service`
//! workloads measured from outside the program.
//!
//! ```text
//! rfic-perfbench --workload cold|sweep|service --seed N --seconds S --trace 0|1
//!                [--serve PATH] [--spans PATH]
//! ```
//!
//! Prints a human summary, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Exits
//! non-zero when any output check fails. See NOTES.md.

mod check;
mod inputs;
mod probes;
mod procfs;
mod serve;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use trace::{PollLog, Tracer};

/// Solver-pool workers per context: the 2-core machine the benchmark
/// was sized on, and `serve --workers`.
pub const WORKERS: usize = 2;

/// Command-line settings of one run.
pub struct Env {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve: Option<PathBuf>,
    pub spans: Option<PathBuf>,
    pub tracer: Arc<Tracer>,
}

impl Env {
    /// Deadline of the measured loop that starts now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// Whether iteration `i` of the loop is traced: the traced run
    /// alternates traced and untraced iterations, so the untraced ones
    /// give the tracing overhead.
    pub fn traced(&self, i: usize) -> bool {
        self.trace && i % 2 == 1
    }
}

/// Everything one run measures.
#[derive(Default)]
pub struct Samples {
    /// Latency of each cold layout, s (untraced iterations).
    pub layout_s: Vec<f64>,
    /// The same, from traced iterations.
    pub traced_layout_s: Vec<f64>,
    /// Throughput of each batch of cold layouts in flight together (one
    /// layout, one sweep, one service round): layouts ÷ batch wall, 1/min.
    pub batch_per_min: Vec<f64>,
    pub replay_s: Vec<f64>,
    pub validate_ms: Vec<f64>,
    pub total_bends: Vec<f64>,
    pub max_bends: Vec<f64>,
    pub max_length_error_um: f64,
    pub setup_s: Vec<f64>,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub layer: Layer,
}

/// Per-layer figures, filled by every run and reported by traced runs.
#[derive(Default)]
pub struct Layer {
    /// `PhaseSnapshot.elapsed` (in-process) or status-poll phase spans
    /// (`serve`), per cold layout: routing, visualization, refinement.
    pub phase_s: [Vec<f64>; 3],
    /// `SolverTotals` per cold layout.
    pub solves: Vec<f64>,
    pub nodes: Vec<f64>,
    pub pivots: Vec<f64>,
    pub fallback_attempts: Vec<f64>,
    /// Flow runtime per cold layout, s (denominator of pivots per second).
    pub flow_s: Vec<f64>,
    /// `SolverTotals::solves` of the layouts the poller watched, so
    /// uncounted trees compare like with like.
    pub watched_solves: Vec<f64>,
    pub cpu_util: f64,
    /// Share of CPU time the host gave to other machines during the loop.
    pub steal_pct: f64,
    /// Poller counters: from the traced loop iterations in-process, from
    /// the repeat probe for `service`.
    pub poll: PollLog,
    pub probes: probes::Figures,
}

impl Samples {
    /// Books one check: `Err` counts as a failed request.
    pub fn check<T>(&mut self, outcome: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match outcome {
            Ok(value) => Some(value),
            Err(message) => {
                eprintln!("check failed: {message}");
                self.failures.push(message);
                None
            }
        }
    }

    /// Books a batch of `layouts` cold layouts that took `wall_s`.
    pub fn batch(&mut self, layouts: usize, wall_s: f64) {
        self.batch_per_min.push(60.0 * layouts as f64 / wall_s);
    }

    /// Books a verified cold layout.
    pub fn cold_layout(&mut self, latency_s: f64, traced: bool, quality: &check::Quality) {
        if traced {
            self.traced_layout_s.push(latency_s);
        } else {
            self.layout_s.push(latency_s);
        }
        self.total_bends.push(quality.total_bends as f64);
        self.max_bends.push(quality.max_bends as f64);
        self.max_length_error_um = self.max_length_error_um.max(quality.max_length_error);
    }

    /// Books the solver counters of one in-process cold layout.
    pub fn solver(&mut self, result: &rfic_core::PilpResult, watched: bool) {
        let layer = &mut self.layer;
        if watched {
            layer.watched_solves.push(result.solver.solves as f64);
        }
        for (slot, snapshot) in layer.phase_s.iter_mut().zip(&result.snapshots) {
            slot.push(snapshot.elapsed.as_secs_f64());
        }
        layer.solves.push(result.solver.solves as f64);
        layer.nodes.push(result.solver.nodes as f64);
        layer.pivots.push(result.solver.simplex_iterations as f64);
        layer
            .fallback_attempts
            .push(result.solver.fallback_attempts as f64);
        layer.flow_s.push(result.runtime.as_secs_f64());
    }
}

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn end_to_end(s: &Samples) -> Vec<Metric> {
    let (tail_p, tail_ms) = stats::tail(&s.validate_ms);
    vec![
        Metric {
            note: format!("median of {} cold layouts", s.layout_s.len()),
            ..metric("layout_s", stats::median(&s.layout_s), "s")
        },
        Metric {
            note: format!("median of {} batches", s.batch_per_min.len()),
            ..metric("layouts_per_min", stats::median(&s.batch_per_min), "1/min")
        },
        Metric {
            note: format!("median of {} replays", s.replay_s.len()),
            ..metric("replay_s", stats::median(&s.replay_s), "s")
        },
        Metric {
            note: format!("median of {} validations", s.validate_ms.len()),
            ..metric("validate_ms_p50", stats::median(&s.validate_ms), "ms")
        },
        Metric {
            note: format!(
                "p{tail_p} of {} validations (p99 {:.4})",
                s.validate_ms.len(),
                stats::percentile(&s.validate_ms, 99.0)
            ),
            ..metric("validate_ms_tail", tail_ms, "ms")
        },
        metric("total_bends", stats::median(&s.total_bends), "count"),
        metric("max_bends", stats::median(&s.max_bends), "count"),
        Metric {
            note: format!("median of {} set-ups", s.setup_s.len()),
            ..metric("setup_s", stats::median(&s.setup_s), "s")
        },
        metric("peak_rss_mb", s.peak_rss_mb, "MB"),
    ]
}

fn per_layer(s: &Samples, env: &Env) -> Vec<Metric> {
    let l = &s.layer;
    let p = &l.probes;
    let poll = &l.poll;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let ratio = |hits: usize, misses: usize| hits as f64 / (hits + misses).max(1) as f64;
    let trees_per_layout = poll.trees as f64 / poll.cold_layouts.max(1) as f64;
    let solves = mean(&l.solves);
    let watched_solves = mean(&l.watched_solves);
    let limit = rfic_core::PilpConfig::fast().solve_time_limit.as_secs_f64();
    let limit_bound = poll.tree_s.iter().filter(|&&t| t >= 0.98 * limit).count();
    let untraced = stats::median(&s.layout_s);
    let overhead = 100.0 * (stats::median(&s.traced_layout_s) - untraced) / untraced.max(1e-9);
    vec![
        metric("serve.validate_overhead_ms", p.validate_overhead_ms, "ms"),
        metric("wire.parse_us", p.parse_us, "us"),
        metric("wire.export_us", p.export_us, "us"),
        metric("pilp.routing_s", stats::median(&l.phase_s[0]), "s"),
        metric("pilp.visualization_s", stats::median(&l.phase_s[1]), "s"),
        metric("pilp.refinement_s", stats::median(&l.phase_s[2]), "s"),
        metric(
            "flowcache.hit_ratio",
            ratio(poll.flow_hits, poll.flow_misses),
            "ratio",
        ),
        metric(
            "flowcache.lookups",
            (poll.flow_hits + poll.flow_misses) as f64,
            "count",
        ),
        metric(
            "modelcache.hit_ratio",
            ratio(poll.model_hits, poll.model_misses),
            "ratio",
        ),
        metric(
            "modelcache.lookups",
            (poll.model_hits + poll.model_misses) as f64,
            "count",
        ),
        metric("milp.trees", trees_per_layout, "count"),
        metric("milp.solves", solves, "count"),
        metric(
            "milp.uncounted_trees",
            trees_per_layout - watched_solves,
            "count",
        ),
        metric(
            "milp.replay_trees",
            poll.replay_trees as f64 / poll.replays.max(1) as f64,
            "count",
        ),
        metric("milp.nodes", mean(&l.nodes), "count"),
        metric(
            "milp.fallback_attempts",
            mean(&l.fallback_attempts),
            "count",
        ),
        metric("milp.tree_s_p50", stats::median(&poll.tree_s), "s"),
        metric(
            "milp.tree_s_max",
            poll.tree_s.iter().copied().fold(0.0, f64::max),
            "s",
        ),
        metric("milp.limit_bound_trees", limit_bound as f64, "count"),
        metric("milp.nodes_spread", p.nodes_spread, "ratio"),
        metric("lp.pivots", mean(&l.pivots), "count"),
        metric("lp.pivots_spread", p.pivots_spread, "ratio"),
        metric(
            "lp.pivots_per_s",
            l.pivots.iter().sum::<f64>() / l.flow_s.iter().sum::<f64>().max(1e-9),
            "1/s",
        ),
        metric("model.build_ms", p.build_ms, "ms"),
        metric("lp.root_solve_ms", p.root_solve_ms, "ms"),
        metric("lp.root_pivots", p.root_pivots, "count"),
        metric("milp.probe_solve_ms", p.probe_solve_ms, "ms"),
        metric("process.cpu_util", l.cpu_util, "ratio"),
        metric("host.steal_pct", l.steal_pct, "%"),
        metric("quality.max_length_error_um", s.max_length_error_um, "um"),
        metric("trace.overhead_pct", overhead, "%"),
        metric("trace.spans", env.tracer.len() as f64, "count"),
    ]
}

fn parse_args() -> Result<Env, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve = None;
    let mut spans = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value == "1"),
            "--serve" => serve = Some(PathBuf::from(&value)),
            "--spans" => spans = Some(PathBuf::from(&value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold", "sweep", "service"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (cold, sweep, service)"
        ));
    }
    let trace = trace.unwrap_or(false);
    Ok(Env {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        serve,
        spans,
        tracer: Arc::new(Tracer::new()),
    })
}

fn main() {
    let env = match parse_args() {
        Ok(env) => env,
        Err(message) => {
            eprintln!("rfic-perfbench: {message}");
            std::process::exit(2);
        }
    };
    let mut samples = Samples::default();
    let outcome = match env.workload.as_str() {
        "cold" => workloads::cold(&env, &mut samples),
        "sweep" => workloads::sweep(&env, &mut samples),
        _ => workloads::service(&env, &mut samples),
    };
    if let Err(message) = outcome {
        // A run that could not be carried out prints no result.
        eprintln!("rfic-perfbench: {message}");
        std::process::exit(1);
    }
    if env.trace {
        if let Err(message) = probes::run(&env, &mut samples) {
            eprintln!("rfic-perfbench: probe: {message}");
            std::process::exit(1);
        }
        if let Some(path) = &env.spans {
            if let Err(e) = env.tracer.write(path) {
                eprintln!(
                    "rfic-perfbench: cannot write spans to {}: {e}",
                    path.display()
                );
            }
        }
    }

    let shown = end_to_end(&samples);
    let layers = if env.trace {
        per_layer(&samples, &env)
    } else {
        Vec::new()
    };
    for m in shown.iter().chain(&layers) {
        println!(
            "{:<8} {:<28} {:>14.6} {:<6} {}",
            env.workload, m.name, m.value, m.unit, m.note
        );
    }
    if !env.trace {
        println!(
            "{:<8} {:<28} {:>14.6} {:<6} host CPU time given to other machines",
            env.workload, "host.steal_pct", samples.layer.steal_pct, "%"
        );
    }
    let failed = samples.failures.len() as u64;
    println!(
        "{:<8} {:<28} {:>14.6} {:<6} {failed} of {} requests",
        env.workload,
        "failed_ratio",
        failed as f64 / samples.attempted.max(1) as f64,
        "ratio",
        samples.attempted
    );
    let reported = if env.trace { &layers } else { &shown };
    let metrics: Vec<String> = reported
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        samples.attempted.max(1),
        metrics.join(",")
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
