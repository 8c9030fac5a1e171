//! Layer probes run after the loop of a traced run: timings of single
//! layers on the workload's own documents and on a real layout model,
//! and repeats that show how much solver work depends on timing.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rfic_core::{IlpConfig, JobContext, Layout, LayoutIlp, Pilp, PilpConfig};
use rfic_milp::SolveOptions;
use rfic_netlist::{benchmarks, wire};

use crate::inputs::{self, Input};
use crate::serve::Serve;
use crate::trace::{Poller, Watch};
use crate::{check, stats, Env, Samples, WORKERS};

/// Documents timed by the wire and `serve` validate probes.
const PROBE_DOCS: usize = 16;
/// Timings per document.
const WIRE_REPEATS: usize = 8;
const SERVE_REPEATS: usize = 4;
/// Model builds and root LP solves timed on the layout model.
const ILP_REPEATS: usize = 9;
/// Limit on the probe's one MILP solve.
const PROBE_SOLVE_LIMIT: Duration = Duration::from_secs(60);
/// Inputs laid out again, and how often each, for the timing-dependence
/// figures.
const REPEAT_INPUTS: usize = 2;
const REPEATS: usize = 3;

/// Figures the probes produce.
#[derive(Default)]
pub struct Figures {
    pub parse_us: f64,
    pub export_us: f64,
    pub validate_overhead_ms: f64,
    pub build_ms: f64,
    pub root_solve_ms: f64,
    pub root_pivots: f64,
    pub probe_solve_ms: f64,
    /// Largest `(max − min) / median` over the repeated inputs.
    pub nodes_spread: f64,
    pub pivots_spread: f64,
}

pub fn run(env: &Env, s: &mut Samples) -> Result<(), String> {
    env.tracer.set_enabled(true);
    let docs = inputs::family(env.seed, PROBE_DOCS);
    wire_probe(env, s, &docs);
    layout_model_probe(env, s)?;
    repeat_probe(env, s, &docs[..REPEAT_INPUTS]);
    let overhead_from = if env.workload == "service" {
        // The loop's own validations ran beside two solving jobs.
        stats::median(&s.validate_ms)
    } else {
        serve_validate_probe(env, &docs)?
    };
    s.layer.probes.validate_overhead_ms = overhead_from - s.layer.probes.parse_us / 1e3;
    Ok(())
}

/// Times `wire::from_str` and `wire::to_json` on the run's documents.
fn wire_probe(env: &Env, s: &mut Samples, docs: &[Input]) {
    let mut parse = Vec::new();
    let mut export = Vec::new();
    for (k, input) in docs.iter().enumerate() {
        for _ in 0..WIRE_REPEATS {
            let start = Instant::now();
            let parsed = env.tracer.span("wire.from_str", k as u64, None, || {
                wire::from_str(&input.doc)
            });
            parse.push(start.elapsed().as_secs_f64() * 1e6);
            s.check(parsed.map(|_| ()).map_err(|e| e.to_string()));
            let start = Instant::now();
            let text = env.tracer.span("wire.to_json", k as u64, None, || {
                wire::to_json(&input.netlist).to_string()
            });
            export.push(start.elapsed().as_secs_f64() * 1e6);
            s.check(match text == input.doc {
                true => Ok(()),
                false => Err(format!("{}: export is not stable", input.netlist.name())),
            });
        }
    }
    s.layer.probes.parse_us = stats::median(&parse);
    s.layer.probes.export_us = stats::median(&export);
}

/// `LayoutIlp` build, root relaxation and MILP solve on the concurrent
/// model of the tiny circuit — a layout-shaped LP rather than a random
/// dense one.
fn layout_model_probe(env: &Env, s: &mut Samples) -> Result<(), String> {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    let base = Layout::new(netlist.area());
    let build = || LayoutIlp::build(netlist, IlpConfig::concurrent(netlist), &base);
    let mut build_ms = Vec::new();
    for _ in 0..ILP_REPEATS {
        let start = Instant::now();
        let built = env.tracer.span("model.build", 0, None, build);
        build_ms.push(start.elapsed().as_secs_f64() * 1e3);
        built.map_err(|e| format!("tiny concurrent model: {e}"))?;
    }
    let ilp = build().map_err(|e| format!("tiny concurrent model: {e}"))?;
    let relaxation = ilp.relaxation();
    let mut root_ms = Vec::new();
    let mut pivots = 0.0;
    for _ in 0..ILP_REPEATS {
        let start = Instant::now();
        let solution = env.tracer.span("lp.solve", 0, None, || relaxation.solve());
        root_ms.push(start.elapsed().as_secs_f64() * 1e3);
        pivots = solution
            .map_err(|e| format!("tiny root LP: {e}"))?
            .iterations as f64;
    }
    let options = SolveOptions {
        time_limit: PROBE_SOLVE_LIMIT,
        threads: 1,
        ..SolveOptions::default()
    };
    let start = Instant::now();
    let outcome = env
        .tracer
        .span("milp.solve", 0, None, || ilp.solve(&options));
    let solve_ms = start.elapsed().as_secs_f64() * 1e3;
    let verified = outcome
        .map_err(|e| format!("tiny concurrent solve: {e}"))
        .and_then(|outcome| check::layout(netlist, &outcome.layout));
    s.check(verified);
    let probes = &mut s.layer.probes;
    probes.build_ms = stats::median(&build_ms);
    probes.root_solve_ms = stats::median(&root_ms);
    probes.root_pivots = pivots;
    probes.probe_solve_ms = solve_ms;
    Ok(())
}

/// Lays the first inputs out [`REPEATS`] times each, cold and then as a
/// replay, under a poller of its own. Gives the node and pivot spread
/// across repeats; for `service`, whose solver runs inside `serve`, it
/// also stands in for the solver and cache counters the service does not
/// expose.
fn repeat_probe(env: &Env, s: &mut Samples, docs: &[Input]) {
    let shadow = env.workload == "service";
    let pilp = Pilp::new(PilpConfig::fast());
    let poller = Poller::start(Arc::clone(&env.tracer));
    let mut nodes_spread: f64 = 0.0;
    let mut pivots_spread: f64 = 0.0;
    for (k, input) in docs.iter().enumerate() {
        let request = 1_000_000 + k as u64;
        let mut nodes = Vec::new();
        let mut pivots = Vec::new();
        for _ in 0..REPEATS {
            let ctx = Arc::new(JobContext::new(WORKERS));
            let mut first = None;
            for layouts in [1, 0] {
                poller.watch(Watch {
                    ctx: Arc::clone(&ctx),
                    job: None,
                    sweep: None,
                    request,
                    layouts,
                });
                let job = Arc::new(pilp.submit_in(&input.netlist, &ctx));
                poller.attach_job(Arc::clone(&job));
                let result = env.tracer.span("job.wait", request, None, || job.wait());
                poller.unwatch();
                let outcome = result
                    .map_err(|e| format!("{}: {e}", input.netlist.name()))
                    .and_then(|r| check::layout(&input.netlist, &r.layout).map(|_| r));
                let Some(result) = s.check(outcome) else {
                    break;
                };
                match &first {
                    None => {
                        nodes.push(result.solver.nodes as f64);
                        pivots.push(result.solver.simplex_iterations as f64);
                        if shadow {
                            let layer = &mut s.layer;
                            layer.nodes.push(result.solver.nodes as f64);
                            layer
                                .fallback_attempts
                                .push(result.solver.fallback_attempts as f64);
                            layer.watched_solves.push(result.solver.solves as f64);
                        }
                        first = Some(result.layout);
                    }
                    Some(layout) => {
                        s.check(match result.layout == *layout {
                            true => Ok(()),
                            false => Err(format!("{}: replay differs", input.netlist.name())),
                        });
                    }
                }
            }
            ctx.shutdown();
        }
        nodes_spread = nodes_spread.max(stats::relative_spread(&nodes));
        pivots_spread = pivots_spread.max(stats::relative_spread(&pivots));
    }
    let log = poller.finish();
    if shadow {
        s.layer.poll = log;
    }
    s.layer.probes.nodes_spread = nodes_spread;
    s.layer.probes.pivots_spread = pivots_spread;
}

/// Median `validate` round trip through an idle `serve`, ms.
fn serve_validate_probe(env: &Env, docs: &[Input]) -> Result<f64, String> {
    let binary = env
        .serve
        .as_ref()
        .ok_or("the traced run needs --serve PATH")?;
    let mut serve = Serve::spawn(binary, WORKERS)?;
    let mut rtt = Vec::new();
    for (k, input) in docs.iter().enumerate() {
        let line = inputs::validate_line(&input.doc);
        serve.call(&line)?;
        for _ in 0..SERVE_REPEATS {
            let start = Instant::now();
            env.tracer
                .span("serve.validate", k as u64, None, || serve.call(&line))?;
            rtt.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    serve.shutdown()?;
    Ok(stats::median(&rtt))
}
