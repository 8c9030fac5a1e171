//! Contracts of refinement's intra-job speculation and of the memoized
//! proven-infeasible solve sites it leans on: speculation changes when
//! solves run, never what they produce; cancelling a job mid-speculation
//! stops both branches; and a replay runs no solver tree at all.
//!
//! The speculation gate opens only for a flow that is alone in the
//! process, so any other flow in flight closes it: the tests here take
//! [`SERIAL`] to run one at a time.

use std::sync::Mutex;

use rfic_core::{JobContext, Pilp, PilpConfig, PilpError, PilpPhase};
use rfic_netlist::generator::{generate, CircuitSpec};
use rfic_netlist::Technology;

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// One device, one bond pad and one microstrip in the tiny circuit's
/// area: a circuit whose every hard-length refinement solve is
/// infeasible, so each refinement step falls back to its soft-length
/// solve — the site pair intra-job speculation overlaps.
fn single_strip(seed: u64) -> rfic_netlist::Netlist {
    let spec = CircuitSpec {
        name: format!("single-strip-{seed}"),
        num_devices: 1,
        num_microstrips: 1,
        num_pads: 1,
        area: (380.0, 320.0),
        reduced_area: None,
        detour_fraction: 0.34,
        double_detours: 0,
        tech: Technology::cmos90(),
        seed,
    };
    generate(&spec)
        .expect("single-strip spec is generable")
        .netlist
}

/// A replay of a solved single-strip circuit is a pure lookup: the
/// proven-infeasible hard-length sites replay from the cache like the
/// solved ones, so no branch-and-bound tree runs at all.
#[test]
fn replay_runs_no_solver_tree() {
    let _serial = serial();
    let ctx = JobContext::new(2);
    let netlist = single_strip(7);
    let pilp = Pilp::new(PilpConfig::fast());
    let first = pilp.submit_in(&netlist, &ctx).wait().expect("cold job");
    assert!(
        first.solver.infeasible_proofs > 0,
        "the cold flow proves some hard-length site infeasible"
    );
    let trees = ctx.pool().completed_trees();
    let replay = pilp.submit_in(&netlist, &ctx).wait().expect("replay");
    assert_eq!(
        ctx.pool().completed_trees(),
        trees,
        "a replay must not run a single tree"
    );
    assert_eq!(replay.layout, first.layout);
    assert_eq!(replay.solver.solves, 0);
    assert_eq!(replay.solver.infeasible_proofs, 0);
    ctx.shutdown();
}

/// Speculation changes when solves run, never what they produce: on a
/// 1-worker context the gate cannot open and the flow runs the serial
/// order; on a 2-worker context the soft-length fallback runs beside
/// every hard-length proof. Layouts, bends and the full solver
/// accounting agree seed for seed.
#[test]
fn speculation_preserves_layouts_and_solver_totals() {
    let _serial = serial();
    let pilp = Pilp::new(PilpConfig::fast());
    let serial = JobContext::new(1);
    let speculative = JobContext::new(2);
    for seed in 1..=8 {
        let netlist = single_strip(seed);
        let a = pilp.submit_in(&netlist, &serial).wait().expect("serial");
        let b = pilp
            .submit_in(&netlist, &speculative)
            .wait()
            .expect("speculative");
        assert_eq!(a.layout, b.layout, "seed {seed}: layouts differ");
        assert_eq!(
            a.report().total_bends,
            b.report().total_bends,
            "seed {seed}: bends differ"
        );
        // Every hard-length solve fails on this family, so the soft
        // branch is always used and nothing is discarded.
        assert_eq!(a.solver, b.solver, "seed {seed}: solver totals differ");
    }
    serial.shutdown();
    speculative.shutdown();
}

/// Submits single-strip circuits to `ctx` until one is cancelled while
/// its speculative soft-length tree runs beside the hard-length one, and
/// checks that the job then fails with [`PilpError::Cancelled`] and every
/// pool worker is free again.
fn cancel_one_job_mid_speculation(pilp: &Pilp, ctx: &JobContext) {
    for seed in 1..=20 {
        let job = pilp.submit_in(&single_strip(seed), ctx);
        // A lone flow on a 1-thread config holds both workers only while
        // a speculative tree runs beside its own.
        while job.poll().is_none()
            && !(job.progress().phase == Some(PilpPhase::Refinement)
                && ctx.pool().idle_workers() == 0)
        {
            std::thread::yield_now();
        }
        job.cancel();
        let result = job.wait();
        assert_eq!(ctx.pool().idle_workers(), ctx.pool().workers());
        if matches!(result, Err(PilpError::Cancelled)) {
            return;
        }
        // The job beat the poll loop to the finish; try the next seed.
        result.expect("an uncancelled job completes");
    }
    panic!("no seed was caught with a speculative tree in flight");
}

/// Cancelling a job while its speculative soft-length tree runs beside
/// the hard-length one stops both: the job fails with
/// [`PilpError::Cancelled`] and every pool worker is free again. The
/// cancelled flow leaves the in-flight count, so the gate opens for the
/// next job: a second job is caught speculating in turn.
#[test]
fn cancel_during_speculation_stops_both_branches() {
    let _serial = serial();
    let ctx = JobContext::new(2);
    let pilp = Pilp::new(PilpConfig::fast());
    cancel_one_job_mid_speculation(&pilp, &ctx);
    cancel_one_job_mid_speculation(&pilp, &ctx);
    ctx.shutdown();
}
