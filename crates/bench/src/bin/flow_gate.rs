//! CI flow-regression gate: the end-to-end companion of `bench_gate`.
//!
//! The solver micro-benchmarks protect individual kernels; this gate
//! protects the *flow-level* result those kernels buy — the tiny-circuit
//! P-ILP run that must reach exact length on every strip in seconds, not
//! minutes. It runs the flow, records wall time, length matching, bends,
//! DRC status and the aggregate branch-and-bound traffic, then measures
//! job-API throughput (several concurrent tiny-circuit jobs over one
//! shared solver pool, recorded as requests/sec), writes the measurements
//! to `target/flow_current.json`, and fails when a strip loses its exact
//! length or the wall time regresses past the threshold against the
//! committed `BENCH_flow.json` baseline.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p rfic-bench --bin flow_gate -- \
//!     [--baseline BENCH_flow.json] \
//!     [--current target/flow_current.json]  # skip re-running the flow
//!     [--threshold 30]                      # percent wall-time regression
//!     [--record BENCH_flow.json]            # refresh the baseline instead
//! ```

use std::process::ExitCode;
use std::time::Instant;

use rfic_bench::gate::{flow_gate, flow_json, parse_flow_json, write_target_artifact, FlowRecord};
use rfic_core::{JobContext, Pilp, PilpConfig};
use rfic_netlist::benchmarks;

/// Number of concurrent layout jobs in the throughput measurement.
const CONCURRENT_JOBS: usize = 4;

/// Number of variants in the parameter-sweep measurement.
const SWEEP_VARIANTS: usize = 8;

/// Absolute wall-time regression floor (ms): differences smaller than this
/// are scheduler noise on a shared runner, never a lost optimisation. The
/// tiny flow runs ~7 s, so 2 s ≈ the noise band observed across CI hosts.
const MIN_ABS_REGRESSION_MS: f64 = 2_000.0;

fn fail(message: &str) -> ExitCode {
    eprintln!("flow-gate: error: {message}");
    ExitCode::from(2)
}

/// Runs the tiny-circuit flow once and measures it.
fn measure_tiny_flow() -> Result<FlowRecord, String> {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    println!("flow-gate: running the tiny-circuit P-ILP flow (fast config) ...");
    let start = Instant::now();
    let result = Pilp::new(PilpConfig::fast())
        .run(netlist)
        .map_err(|e| format!("P-ILP run failed: {e}"))?;
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let report = result.report();
    let exact = report
        .strips
        .iter()
        .filter(|s| s.length_error.abs() < 1e-3)
        .count() as u64;
    Ok(FlowRecord {
        name: netlist.name().to_owned(),
        wall_ms,
        strips: report.strips.len() as u64,
        exact_lengths: exact,
        total_bends: report.total_bends as u64,
        max_length_error_um: report.max_length_error,
        drc_violations: report.drc_violations as u64,
        bnb_nodes: result.solver.nodes as u64,
        solves: result.solver.solves as u64,
        simplex_iterations: result.solver.simplex_iterations as u64,
        presolve_rows_removed: result.solver.presolve_rows_removed as u64,
        presolve_cols_removed: result.solver.presolve_cols_removed as u64,
        presolve_nonzeros_removed: result.solver.presolve_nonzeros_removed as u64,
        fallback_attempts: result.solver.fallback_attempts as u64,
        fallback_recoveries: result.solver.fallback_recoveries as u64,
        requests_per_sec: 0.0,
        sweep_variants: 0,
        cold_wall_ms: 0.0,
        cold_simplex_iterations: 0,
        infeasible_proofs: result.solver.infeasible_proofs as u64,
        speculative_discards: result.solver.speculative_discards as u64,
    })
}

/// Runs [`CONCURRENT_JOBS`] identical tiny-circuit jobs over one shared
/// [`JobContext`] (one solver pool, one solve-site cache) and measures
/// completed requests per second. Every job must reach exact length on
/// every strip and stay DRC-clean — a single degraded result fails the
/// measurement outright.
fn measure_concurrent_throughput() -> Result<FlowRecord, String> {
    let circuit = benchmarks::tiny_circuit();
    let netlist = &circuit.netlist;
    println!(
        "flow-gate: running {CONCURRENT_JOBS} concurrent tiny-circuit jobs over one shared pool ..."
    );
    let ctx = JobContext::new(0);
    let pilp = Pilp::new(PilpConfig::fast());
    let start = Instant::now();
    let handles: Vec<_> = (0..CONCURRENT_JOBS)
        .map(|_| pilp.submit_in(netlist, &ctx))
        .collect();
    let mut totals = (0u64, 0u64, 0u64); // nodes, solves, iterations
    let mut presolve = (0u64, 0u64, 0u64); // rows, cols, nonzeros removed
    let mut fallbacks = (0u64, 0u64); // attempts, recoveries
    let mut speculation = (0u64, 0u64); // infeasible proofs, discards
    let mut worst_bends = 0u64;
    let mut worst_error = 0.0f64;
    let mut first_report = None;
    for (i, handle) in handles.iter().enumerate() {
        let result = handle
            .wait()
            .map_err(|e| format!("concurrent job {i} failed: {e}"))?;
        let report = result.report();
        let exact = report
            .strips
            .iter()
            .filter(|s| s.length_error.abs() < 1e-3)
            .count();
        if exact < report.strips.len() {
            return Err(format!(
                "concurrent job {i}: only {exact}/{} strips reached exact length",
                report.strips.len()
            ));
        }
        if report.drc_violations > 0 {
            return Err(format!(
                "concurrent job {i}: {} DRC violations",
                report.drc_violations
            ));
        }
        totals.0 += result.solver.nodes as u64;
        totals.1 += result.solver.solves as u64;
        totals.2 += result.solver.simplex_iterations as u64;
        presolve.0 += result.solver.presolve_rows_removed as u64;
        presolve.1 += result.solver.presolve_cols_removed as u64;
        presolve.2 += result.solver.presolve_nonzeros_removed as u64;
        fallbacks.0 += result.solver.fallback_attempts as u64;
        fallbacks.1 += result.solver.fallback_recoveries as u64;
        speculation.0 += result.solver.infeasible_proofs as u64;
        speculation.1 += result.solver.speculative_discards as u64;
        worst_bends = worst_bends.max(report.total_bends as u64);
        worst_error = worst_error.max(report.max_length_error);
        if first_report.is_none() {
            first_report = Some((report.strips.len() as u64, report.strips.len() as u64));
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    ctx.shutdown();
    let (strips, exact_lengths) = first_report.expect("at least one job ran");
    Ok(FlowRecord {
        name: format!("{} x{CONCURRENT_JOBS} jobs", netlist.name()),
        wall_ms,
        strips,
        exact_lengths,
        total_bends: worst_bends,
        max_length_error_um: worst_error,
        drc_violations: 0,
        bnb_nodes: totals.0,
        solves: totals.1,
        simplex_iterations: totals.2,
        presolve_rows_removed: presolve.0,
        presolve_cols_removed: presolve.1,
        presolve_nonzeros_removed: presolve.2,
        fallback_attempts: fallbacks.0,
        fallback_recoveries: fallbacks.1,
        requests_per_sec: CONCURRENT_JOBS as f64 / (wall_ms / 1e3),
        sweep_variants: 0,
        cold_wall_ms: 0.0,
        cold_simplex_iterations: 0,
        infeasible_proofs: speculation.0,
        speculative_discards: speculation.1,
    })
}

/// Target-length scales of the sweep measurement's variants — the fine
/// 0.5% perturbations a matching-network length sweep actually explores.
/// Scaling targets *up* keeps every variant routable in the fixed area,
/// and target lengths enter the layout models as constraint values only
/// — exactly the equal-structure shape the sweep fast path exists for.
/// Every scale on the list completes the *cold* flow DRC-clean with all
/// lengths exact (1.015 is skipped: its refinement leaves one spacing
/// violation regardless of caching), so the gate measures the fast path
/// against a clean baseline instead of flow robustness.
const SWEEP_SCALES: [f64; SWEEP_VARIANTS] = [1.0, 1.005, 1.01, 1.02, 1.025, 1.03, 1.035, 1.04];

/// The parameter variants of the sweep measurement: [`SWEEP_SCALES`]
/// applied to the committed tiny circuit.
fn sweep_netlists() -> Vec<rfic_netlist::Netlist> {
    let circuit = benchmarks::tiny_circuit();
    SWEEP_SCALES
        .iter()
        .map(|&scale| circuit.netlist.with_target_scale(scale))
        .collect()
}

/// Checks one sweep-measurement result for full quality (every strip
/// exact, DRC-clean) and returns `(strips, exact, bends, max_error,
/// pivots)`.
fn check_sweep_result(
    label: &str,
    index: usize,
    result: &rfic_core::PilpResult,
) -> Result<(u64, u64, u64, f64, u64), String> {
    let report = result.report();
    let exact = report
        .strips
        .iter()
        .filter(|s| s.length_error.abs() < 1e-3)
        .count() as u64;
    if exact < report.strips.len() as u64 {
        return Err(format!(
            "{label} variant {index}: only {exact}/{} strips reached exact length",
            report.strips.len()
        ));
    }
    if report.drc_violations > 0 {
        return Err(format!(
            "{label} variant {index}: {} DRC violations",
            report.drc_violations
        ));
    }
    Ok((
        report.strips.len() as u64,
        exact,
        report.total_bends as u64,
        report.max_length_error,
        result.solver.simplex_iterations as u64,
    ))
}

/// Measures the parameter-sweep fast path: [`SWEEP_VARIANTS`] tiny-circuit
/// variants once as independent cold runs (the reference: every variant
/// rebuilds and solves its models from scratch) and once as one batched
/// [`Pilp::submit_sweep_in`] sweep over a fresh [`JobContext`] (variants
/// share the structure-keyed model cache, so equal-structure models are
/// value-patched and re-solved from the retained basis). Every variant of
/// both runs must reach exact length on every strip and stay DRC-clean.
fn measure_sweep() -> Result<FlowRecord, String> {
    let variants = sweep_netlists();
    let pilp = Pilp::new(PilpConfig::fast());

    println!(
        "flow-gate: running {SWEEP_VARIANTS} tiny-circuit variants as independent cold runs ..."
    );
    let cold_start = Instant::now();
    let mut cold_pivots = 0u64;
    for (i, netlist) in variants.iter().enumerate() {
        let result = pilp
            .run(netlist)
            .map_err(|e| format!("cold variant {i} failed: {e}"))?;
        let (.., pivots) = check_sweep_result("cold", i, &result)?;
        cold_pivots += pivots;
    }
    let cold_wall_ms = cold_start.elapsed().as_secs_f64() * 1e3;

    println!("flow-gate: running the same {SWEEP_VARIANTS} variants as one batched sweep ...");
    let ctx = JobContext::new(0);
    let sweep_start = Instant::now();
    let results = pilp.submit_sweep_in(&variants, &ctx).wait();
    let wall_ms = sweep_start.elapsed().as_secs_f64() * 1e3;
    ctx.shutdown();

    let mut strips = 0u64;
    let mut exact_lengths = 0u64;
    let mut total_bends = 0u64;
    let mut max_error = 0.0f64;
    let mut totals = rfic_core::SolverTotals::default();
    for (i, outcome) in results.iter().enumerate() {
        let result = outcome
            .as_ref()
            .map_err(|e| format!("sweep variant {i} failed: {e}"))?;
        let (s, e, bends, error, _) = check_sweep_result("sweep", i, result)?;
        strips += s;
        exact_lengths += e;
        total_bends += bends;
        max_error = max_error.max(error);
        totals.nodes += result.solver.nodes;
        totals.solves += result.solver.solves;
        totals.simplex_iterations += result.solver.simplex_iterations;
        totals.presolve_rows_removed += result.solver.presolve_rows_removed;
        totals.presolve_cols_removed += result.solver.presolve_cols_removed;
        totals.presolve_nonzeros_removed += result.solver.presolve_nonzeros_removed;
        totals.fallback_attempts += result.solver.fallback_attempts;
        totals.fallback_recoveries += result.solver.fallback_recoveries;
        totals.infeasible_proofs += result.solver.infeasible_proofs;
        totals.speculative_discards += result.solver.speculative_discards;
    }

    Ok(FlowRecord {
        name: format!("tiny sweep x{SWEEP_VARIANTS}"),
        wall_ms,
        strips,
        exact_lengths,
        total_bends,
        max_length_error_um: max_error,
        drc_violations: 0,
        bnb_nodes: totals.nodes as u64,
        solves: totals.solves as u64,
        simplex_iterations: totals.simplex_iterations as u64,
        presolve_rows_removed: totals.presolve_rows_removed as u64,
        presolve_cols_removed: totals.presolve_cols_removed as u64,
        presolve_nonzeros_removed: totals.presolve_nonzeros_removed as u64,
        fallback_attempts: totals.fallback_attempts as u64,
        fallback_recoveries: totals.fallback_recoveries as u64,
        requests_per_sec: 0.0,
        sweep_variants: SWEEP_VARIANTS as u64,
        cold_wall_ms,
        cold_simplex_iterations: cold_pivots,
        infeasible_proofs: totals.infeasible_proofs as u64,
        speculative_discards: totals.speculative_discards as u64,
    })
}

fn main() -> ExitCode {
    let mut baseline_path = "BENCH_flow.json".to_string();
    let mut current_path: Option<String> = None;
    let mut record_path: Option<String> = None;
    let mut threshold_pct = 30.0f64;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--baseline" => match args.next() {
                Some(v) => baseline_path = v,
                None => return fail("--baseline needs a path"),
            },
            "--current" => match args.next() {
                Some(v) => current_path = Some(v),
                None => return fail("--current needs a path"),
            },
            "--record" => match args.next() {
                Some(v) => record_path = Some(v),
                None => return fail("--record needs a path"),
            },
            "--threshold" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => return fail("--threshold needs a number (percent)"),
            },
            "--help" | "-h" => {
                println!(
                    "flow_gate [--baseline <json>] [--current <json>] [--threshold <pct>] \
                     [--record <json>]"
                );
                return ExitCode::SUCCESS;
            }
            other => return fail(&format!("unknown argument {other}")),
        }
    }

    // Obtain the current measurement (a pre-recorded file, or a live run).
    let current = match &current_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) => return fail(&format!("cannot read current run {path}: {e}")),
            };
            match parse_flow_json(&text) {
                Ok(records) => records,
                Err(e) => return fail(&format!("cannot parse current run {path}: {e}")),
            }
        }
        None => {
            let single = match measure_tiny_flow() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            let concurrent = match measure_concurrent_throughput() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            let sweep = match measure_sweep() {
                Ok(record) => record,
                Err(e) => return fail(&e),
            };
            vec![single, concurrent, sweep]
        }
    };
    for record in &current {
        if record.sweep_variants > 0 {
            println!(
                "flow-gate: {}: sweep wall {:.0} ms / {} pivots vs cold {:.0} ms / {} pivots \
                 ({:.2}x wall speedup), {}/{} exact lengths, {} bends total, worst |ΔL| \
                 {:.3} µm",
                record.name,
                record.wall_ms,
                record.simplex_iterations,
                record.cold_wall_ms,
                record.cold_simplex_iterations,
                record.cold_wall_ms / record.wall_ms.max(1e-9),
                record.exact_lengths,
                record.strips,
                record.total_bends,
                record.max_length_error_um,
            );
            continue;
        }
        if record.requests_per_sec > 0.0 {
            println!(
                "flow-gate: {}: wall {:.0} ms, {:.3} requests/sec, worst bends {}, worst \
                 |ΔL| {:.3} µm, {} B&B nodes over {} solves ({} pivots) summed across jobs",
                record.name,
                record.wall_ms,
                record.requests_per_sec,
                record.total_bends,
                record.max_length_error_um,
                record.bnb_nodes,
                record.solves,
                record.simplex_iterations,
            );
            continue;
        }
        println!(
            "flow-gate: {}: wall {:.0} ms, {}/{} exact lengths, {} bends, max |ΔL| {:.3} µm, \
             {} DRC violations, {} B&B nodes over {} solves ({} pivots); presolve removed \
             {} rows, {} cols, {} nonzeros across the run; {} fallback re-solves \
             ({} recovered)",
            record.name,
            record.wall_ms,
            record.exact_lengths,
            record.strips,
            record.total_bends,
            record.max_length_error_um,
            record.drc_violations,
            record.bnb_nodes,
            record.solves,
            record.simplex_iterations,
            record.presolve_rows_removed,
            record.presolve_cols_removed,
            record.presolve_nonzeros_removed,
            record.fallback_attempts,
            record.fallback_recoveries,
        );
    }

    // Persist the measurement for the CI artifact.
    let current_json = flow_json(&current);
    write_target_artifact("flow_current.json", &current_json);

    // Baseline-refresh mode: record and exit.
    if let Some(path) = record_path {
        return match std::fs::write(&path, &current_json) {
            Ok(()) => {
                println!("flow-gate: baseline written to {path}");
                ExitCode::SUCCESS
            }
            Err(e) => fail(&format!("cannot write baseline {path}: {e}")),
        };
    }

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => return fail(&format!("cannot read baseline {baseline_path}: {e}")),
    };
    let baseline = match parse_flow_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => return fail(&format!("cannot parse baseline {baseline_path}: {e}")),
    };

    let report = flow_gate(&baseline, &current, threshold_pct, MIN_ABS_REGRESSION_MS);
    for note in &report.notes {
        println!("  note  {note}");
    }
    for failure in &report.failures {
        println!("  FAIL  {failure}");
    }
    if report.ok() {
        println!("flow-gate: PASS");
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "flow-gate: FAIL — investigate, or refresh the baseline with \
             `cargo run --release -p rfic-bench --bin flow_gate -- --record {baseline_path}` \
             if the change is intentional"
        );
        ExitCode::FAILURE
    }
}
