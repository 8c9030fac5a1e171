//! The asynchronous layout-job API: submit netlists, share one solver
//! pool, wait/poll/cancel.
//!
//! [`crate::Pilp::run`] historically owned the whole machine for the
//! duration of one flow — every MILP solve spawned its own worker
//! threads, and a caller wanting two layouts at once paid for two full
//! thread sets with no way to stop a runaway run. This module inverts
//! the control flow:
//!
//! * [`crate::Pilp::submit`] returns a [`JobHandle`] immediately; the
//!   flow runs on a background thread and every MILP solve is scheduled
//!   on the [`JobContext`]'s shared [`rfic_milp::SolverPool`], so N
//!   concurrent jobs multiplex one fixed worker set instead of
//!   oversubscribing the cores.
//! * [`JobHandle::cancel`] trips a [`rfic_milp::CancelToken`] that the
//!   simplex kernel polls every few dozen pivots (the same plumbing a
//!   per-solve time limit uses): the in-flight solve returns promptly
//!   and the flow surfaces [`crate::PilpError::Cancelled`] at the next
//!   phase checkpoint — deliberately checked *outside* the per-strip
//!   solve loops, which tolerate individual solve failures by design.
//! * [`crate::PilpConfig::deadline`] bounds the whole run: per-solve
//!   time limits are capped by the time remaining and an exhausted
//!   deadline surfaces as [`crate::PilpError::DeadlineExceeded`].
//! * Jobs sharing a context also share its [`crate::FlowCache`] of
//!   memoized solve-site outcomes — proven-optimal layouts and proven
//!   infeasibilities alike — so a repeated identical request replays
//!   each solve site as a pure lookup: the identical layout with
//!   near-zero solver work.
//! * The process counts its flows in flight, over all contexts. A flow
//!   that finds itself alone, on a pool with idle workers, overlaps
//!   independent solve sites of its own (DESIGN.md, "Intra-job
//!   speculation"); with company it keeps the serial order, leaving the
//!   machine's cores to the other flows.
//!
//! The process-wide default context behind [`crate::Pilp::run`] and
//! [`crate::Pilp::submit`] is [`JobContext::global`]; servers that need
//! their own pool lifecycle construct a [`JobContext`] and use
//! [`crate::Pilp::submit_in`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use rfic_lp::sync::{self, LockExt};
use rfic_milp::{CancelToken, SolverPool};
use rfic_netlist::Netlist;

use crate::cache::FlowCache;
use crate::pilp::{Pilp, PilpError, PilpPhase, PilpResult};

/// Shared solving infrastructure for layout jobs: a persistent
/// [`SolverPool`] plus the cross-request [`FlowCache`] of memoized
/// solve-site outcomes.
///
/// Every job submitted into the same context schedules its
/// branch-and-bound trees on the same fixed worker set and shares the
/// same cache.
pub struct JobContext {
    pool: SolverPool,
    cache: Arc<FlowCache>,
}

impl JobContext {
    /// Creates a context with `workers` pool threads (`0` = hardware
    /// parallelism capped at 8) and a default-capacity cache.
    pub fn new(workers: usize) -> JobContext {
        JobContext {
            pool: SolverPool::new(workers),
            cache: Arc::new(FlowCache::default()),
        }
    }

    /// The process-wide context used by [`Pilp::run`] and
    /// [`Pilp::submit`]. Created lazily on first use; its pool workers
    /// live for the rest of the process.
    pub fn global() -> &'static JobContext {
        static GLOBAL: OnceLock<JobContext> = OnceLock::new();
        GLOBAL.get_or_init(|| JobContext::new(0))
    }

    /// The shared solver pool.
    pub fn pool(&self) -> &SolverPool {
        &self.pool
    }

    /// The shared solve-site cache.
    pub fn cache(&self) -> &Arc<FlowCache> {
        &self.cache
    }

    /// Counters of the retired structure-keyed model cache, always
    /// zero. Its only reason to exist is the `perfbench` trace
    /// (`perfbench/src/trace.rs::cache_counters`), which still reads
    /// `hits()` and `misses()` here.
    pub fn model_cache(&self) -> RetiredModelCache {
        RetiredModelCache
    }

    /// Shuts the pool down: in-flight solves return their incumbents and
    /// jobs still running fail with [`PilpError::PoolShutdown`] at their
    /// next checkpoint.
    pub fn shutdown(&self) {
        self.pool.shutdown();
    }
}

/// The storage-free stand-in [`JobContext::model_cache`] returns: no
/// capacity, no lookup, no store, and counters that stay at zero.
#[derive(Debug, Clone, Copy)]
pub struct RetiredModelCache;

impl RetiredModelCache {
    /// Always `0`.
    pub fn hits(&self) -> usize {
        0
    }

    /// Always `0`.
    pub fn misses(&self) -> usize {
        0
    }
}

/// Flows submitted in this process and not yet finished, over all
/// contexts (a sweep counts once for its whole run). Counted per
/// process rather than per context because the pools of all contexts
/// share the machine's cores.
static FLOWS_IN_FLIGHT: AtomicUsize = AtomicUsize::new(0);

/// Keeps one flow counted in [`FLOWS_IN_FLIGHT`] for as long as it
/// lives.
struct InFlight;

impl InFlight {
    fn enter() -> InFlight {
        FLOWS_IN_FLIGHT.fetch_add(1, Ordering::SeqCst);
        InFlight
    }
}

impl Drop for InFlight {
    fn drop(&mut self) {
        FLOWS_IN_FLIGHT.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The speculation gate on its observed inputs: the flow is alone in
/// the process and `idle_workers` covers two trees of `slots` worker
/// slots each.
fn speculation_gate(flows_in_flight: usize, idle_workers: usize, slots: usize) -> bool {
    flows_in_flight == 1 && idle_workers >= 2 * slots.max(1)
}

/// Internal per-run control block threaded through the flow phases:
/// cancellation, deadline, the shared pool/cache and progress counters.
///
/// [`FlowCtl::branch`] derives the block a speculative solve runs under:
/// shared with the flow except for the cancel token, which is a child of
/// the flow's.
pub(crate) struct FlowCtl {
    cancel: CancelToken,
    deadline: Option<Instant>,
    pool: Option<SolverPool>,
    cache: Option<Arc<FlowCache>>,
    /// [`Netlist::fingerprint`] of the job's circuit (cache keying).
    fingerprint: u64,
    progress: Arc<ProgressState>,
    /// Flow-fatal error recorded inside a tolerant per-strip solve loop
    /// (a contained worker panic, a dead pool); surfaced by the next
    /// [`FlowCtl::check`] so the phase loops abort instead of papering
    /// over the fault with their per-strip fallbacks.
    fatal: Arc<Mutex<Option<PilpError>>>,
}

impl FlowCtl {
    /// The abort checkpoint the phase loops poll between solves:
    /// cancellation, recorded fatal faults, deadline and pool liveness,
    /// in that priority order.
    pub(crate) fn check(&self) -> Result<(), PilpError> {
        let _ = rfic_lp::fault::fire("core.job.checkpoint");
        if self.cancel.is_cancelled() {
            return Err(PilpError::Cancelled);
        }
        if let Some(fatal) = sync::lock(&self.fatal).clone() {
            return Err(fatal);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(PilpError::DeadlineExceeded);
            }
        }
        if let Some(pool) = &self.pool {
            if pool.is_shut_down() {
                return Err(PilpError::PoolShutdown);
            }
        }
        Ok(())
    }

    /// Records a flow-fatal error (first one wins); the next
    /// [`FlowCtl::check`] checkpoint returns it.
    pub(crate) fn record_fatal(&self, error: PilpError) {
        let mut slot = sync::lock(&self.fatal);
        if slot.is_none() {
            *slot = Some(error);
        }
    }

    /// Time left until the deadline (`None` = no deadline).
    pub(crate) fn remaining(&self) -> Option<Duration> {
        self.deadline
            .map(|d| d.saturating_duration_since(Instant::now()))
    }

    /// The job's cancel token (cloned into every `SolveOptions`).
    pub(crate) fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The shared pool, if the job runs pooled.
    pub(crate) fn pool(&self) -> Option<&SolverPool> {
        self.pool.as_ref()
    }

    /// The speculation gate, observed rather than configured: `true`
    /// when this flow is the only one in flight in the process and its
    /// pool has idle workers for two trees of `slots` worker slots each
    /// — the flow's own solve and the speculative one — so overlapping
    /// two solve sites neither takes a core from another flow nor makes
    /// the two trees compete for one worker.
    pub(crate) fn may_speculate(&self, slots: usize) -> bool {
        speculation_gate(
            FLOWS_IN_FLIGHT.load(Ordering::SeqCst),
            self.pool.as_ref().map_or(0, SolverPool::idle_workers),
            slots,
        )
    }

    /// The control block of a speculative branch of this flow: the same
    /// pool, solve-site cache, deadline, progress and fatal slot, under a
    /// child of the flow's cancel token — cancelling the branch stops
    /// only the branch, while cancelling the job stops both.
    pub(crate) fn branch(&self) -> FlowCtl {
        FlowCtl {
            cancel: self.cancel.child(),
            deadline: self.deadline,
            pool: self.pool.clone(),
            cache: self.cache.clone(),
            fingerprint: self.fingerprint,
            progress: Arc::clone(&self.progress),
            fatal: Arc::clone(&self.fatal),
        }
    }

    /// The shared solve-site cache, if attached.
    pub(crate) fn cache(&self) -> Option<&FlowCache> {
        self.cache.as_deref()
    }

    /// The netlist fingerprint for cache keying.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    pub(crate) fn note_phase(&self, phase: PilpPhase) {
        let stage = match phase {
            PilpPhase::GlobalRouting => 1,
            PilpPhase::Visualization => 2,
            PilpPhase::Refinement => 3,
        };
        self.progress.stage.store(stage, Ordering::Relaxed);
    }

    pub(crate) fn note_solve(&self) {
        self.progress.solves.fetch_add(1, Ordering::Relaxed);
    }
}

/// Lock-free progress counters shared between the flow thread and the
/// handle. `stage`: 0 = validating, 1–3 = the phases, 4 = finished.
#[derive(Default)]
struct ProgressState {
    stage: AtomicUsize,
    solves: AtomicUsize,
}

/// A point-in-time progress snapshot of a layout job
/// ([`JobHandle::progress`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobProgress {
    /// The phase currently executing (`None` while validating and after
    /// the job finished).
    pub phase: Option<PilpPhase>,
    /// Individual MILP solves issued so far.
    pub solves: usize,
    /// Whether the job has produced its result (success or error).
    pub done: bool,
}

/// Result slot + wakeup for one job.
#[derive(Default)]
struct JobState {
    result: Mutex<Option<Result<PilpResult, PilpError>>>,
    cv: Condvar,
}

/// Handle to a submitted layout job ([`Pilp::submit`]).
///
/// The handle is passive: dropping it neither cancels nor detaches the
/// job (the flow keeps running on the shared pool); cancel explicitly if
/// the result is no longer wanted.
pub struct JobHandle {
    state: Arc<JobState>,
    cancel: CancelToken,
    progress: Arc<ProgressState>,
}

impl JobHandle {
    /// Blocks until the job finishes and returns (a clone of) its
    /// result. Can be called more than once.
    ///
    /// # Errors
    ///
    /// Whatever the flow returns — including
    /// [`PilpError::Cancelled`] after [`JobHandle::cancel`],
    /// [`PilpError::DeadlineExceeded`] past the configured deadline and
    /// [`PilpError::PoolShutdown`] if the context was shut down
    /// mid-flight.
    pub fn wait(&self) -> Result<PilpResult, PilpError> {
        let mut slot = self.state.result.lock_recover();
        while slot.is_none() {
            slot = sync::wait(&self.state.cv, slot);
        }
        slot.as_ref().expect("result present").clone()
    }

    /// Non-blocking result check: `None` while the job is still running,
    /// otherwise a clone of the result.
    pub fn poll(&self) -> Option<Result<PilpResult, PilpError>> {
        self.state.result.lock_recover().clone()
    }

    /// Requests cancellation. The running solve notices within a few
    /// dozen simplex pivots and the job finishes with
    /// [`PilpError::Cancelled`] at its next phase checkpoint; the pool
    /// workers it occupied move on to other jobs.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// `true` once [`JobHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }

    /// A snapshot of the job's progress.
    pub fn progress(&self) -> JobProgress {
        let stage = self.progress.stage.load(Ordering::Relaxed);
        JobProgress {
            phase: match stage {
                1 => Some(PilpPhase::GlobalRouting),
                2 => Some(PilpPhase::Visualization),
                3 => Some(PilpPhase::Refinement),
                _ => None,
            },
            solves: self.progress.solves.load(Ordering::Relaxed),
            done: stage == 4,
        }
    }
}

/// Spawns the flow thread for one job and wires up its control block.
///
/// `use_cache` controls whether the job reads/feeds the context's
/// [`FlowCache`]: the job API shares it (identical requests replay from
/// memoized solve sites), while the legacy [`Pilp::run`] wrapper opts
/// out so that repeated measurement runs in one process always perform —
/// and report — the full solver work.
pub(crate) fn spawn_job(
    pilp: Pilp,
    netlist: Netlist,
    ctx: &JobContext,
    use_cache: bool,
) -> JobHandle {
    let cancel = CancelToken::new();
    let progress = Arc::new(ProgressState::default());
    let state = Arc::new(JobState::default());
    let in_flight = InFlight::enter();
    let ctl = FlowCtl {
        cancel: cancel.clone(),
        deadline: pilp.config().deadline.map(|d| Instant::now() + d),
        pool: Some(ctx.pool.clone()),
        cache: use_cache.then(|| Arc::clone(&ctx.cache)),
        fingerprint: netlist.fingerprint(),
        progress: Arc::clone(&progress),
        fatal: Arc::default(),
    };
    let thread_state = Arc::clone(&state);
    let thread_progress = Arc::clone(&progress);
    let spawned = std::thread::Builder::new()
        .name("rfic-job".into())
        .spawn(move || {
            // Panic boundary: whatever happens inside the flow, the result
            // slot is filled and waiters are woken — a panicking job must
            // fail itself, not strand every `JobHandle::wait` on it.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = rfic_lp::fault::fire("core.job.flow");
                pilp.run_with(&netlist, &ctl)
            }))
            .unwrap_or_else(|payload| {
                Err(PilpError::Internal {
                    site: "core.job.flow".to_string(),
                    payload: rfic_milp::panic_payload_string(payload.as_ref()),
                })
            });
            // The flow is over before its result is visible, so a caller
            // that waits and submits again never sees it still counted.
            drop(in_flight);
            thread_progress.stage.store(4, Ordering::Relaxed);
            let mut slot = thread_state.result.lock_recover();
            *slot = Some(result);
            thread_state.cv.notify_all();
        });
    if let Err(e) = spawned {
        // Thread spawn failed (resource exhaustion): the job fails
        // immediately instead of panicking the submitter.
        progress.stage.store(4, Ordering::Relaxed);
        *state.result.lock_recover() = Some(Err(PilpError::Internal {
            site: "core.job.spawn".to_string(),
            payload: e.to_string(),
        }));
        state.cv.notify_all();
    }
    JobHandle {
        state,
        cancel,
        progress,
    }
}

/// Result slot + wakeup + progress for one parameter sweep.
#[derive(Default)]
struct SweepState {
    result: Mutex<Option<Vec<Result<PilpResult, PilpError>>>>,
    completed: AtomicUsize,
    cv: Condvar,
}

/// Handle to a submitted parameter sweep ([`Pilp::submit_sweep`]).
///
/// A sweep is an ordered batch of full flows: its variants run
/// **sequentially, in submission order, on one background thread**,
/// sharing the context's solver pool and [`FlowCache`]. Sequential
/// execution keeps the sweep reproducible: the cache traversal is
/// identical to submitting the same variants one at a time, so the
/// layouts are bit-identical to sequential individual submissions.
///
/// Like [`JobHandle`], the handle is passive: dropping it neither
/// cancels nor detaches the sweep.
pub struct SweepHandle {
    state: Arc<SweepState>,
    cancel: CancelToken,
    variants: usize,
}

impl SweepHandle {
    /// Blocks until every variant finishes and returns (a clone of) the
    /// per-variant results, in submission order. Can be called more than
    /// once.
    pub fn wait(&self) -> Vec<Result<PilpResult, PilpError>> {
        let mut slot = self.state.result.lock_recover();
        while slot.is_none() {
            slot = sync::wait(&self.state.cv, slot);
        }
        slot.as_ref().expect("result present").clone()
    }

    /// Non-blocking result check: `None` while variants are still
    /// running, otherwise a clone of the per-variant results.
    pub fn poll(&self) -> Option<Vec<Result<PilpResult, PilpError>>> {
        self.state.result.lock_recover().clone()
    }

    /// Number of variants that have finished (success or error).
    pub fn completed(&self) -> usize {
        self.state
            .completed
            .load(Ordering::Relaxed)
            .min(self.variants)
    }

    /// Total number of variants submitted.
    pub fn variants(&self) -> usize {
        self.variants
    }

    /// Requests cancellation of the whole sweep: the in-flight variant
    /// aborts at its next checkpoint and every remaining variant fails
    /// with [`PilpError::Cancelled`].
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// `true` once [`SweepHandle::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_cancelled()
    }
}

/// Spawns the sweep thread: variants run sequentially in submission
/// order, each as a full flow under its own control block, all sharing
/// the context's pool and solve-site cache.
pub(crate) fn spawn_sweep(pilp: Pilp, variants: Vec<Netlist>, ctx: &JobContext) -> SweepHandle {
    let cancel = CancelToken::new();
    let state = Arc::new(SweepState::default());
    let pool = ctx.pool.clone();
    let cache = Arc::clone(&ctx.cache);
    let in_flight = InFlight::enter();
    let count = variants.len();
    let thread_state = Arc::clone(&state);
    let thread_cancel = cancel.clone();
    let spawned = std::thread::Builder::new()
        .name("rfic-sweep".into())
        .spawn(move || {
            let mut results = Vec::with_capacity(variants.len());
            for netlist in &variants {
                // Per-variant panic boundary, like `spawn_job`'s: a
                // panicking variant fails itself without stranding the
                // rest of the sweep or its waiters.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let ctl = FlowCtl {
                        cancel: thread_cancel.clone(),
                        deadline: pilp.config().deadline.map(|d| Instant::now() + d),
                        pool: Some(pool.clone()),
                        cache: Some(Arc::clone(&cache)),
                        fingerprint: netlist.fingerprint(),
                        progress: Arc::new(ProgressState::default()),
                        fatal: Arc::default(),
                    };
                    pilp.run_with(netlist, &ctl)
                }))
                .unwrap_or_else(|payload| {
                    Err(PilpError::Internal {
                        site: "core.job.sweep".to_string(),
                        payload: rfic_milp::panic_payload_string(payload.as_ref()),
                    })
                });
                results.push(result);
                thread_state.completed.fetch_add(1, Ordering::Relaxed);
            }
            drop(in_flight);
            let mut slot = thread_state.result.lock_recover();
            *slot = Some(results);
            thread_state.cv.notify_all();
        });
    if let Err(e) = spawned {
        let failure = || {
            Err(PilpError::Internal {
                site: "core.job.sweep.spawn".to_string(),
                payload: e.to_string(),
            })
        };
        state.completed.store(count, Ordering::Relaxed);
        *state.result.lock_recover() = Some((0..count).map(|_| failure()).collect());
        state.cv.notify_all();
    }
    SweepHandle {
        state,
        cancel,
        variants: count,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pilp::PilpConfig;
    use rfic_netlist::benchmarks;

    #[test]
    fn submitted_job_reports_progress_and_result() {
        let ctx = JobContext::new(2);
        let circuit = benchmarks::tiny_circuit();
        let job = Pilp::new(PilpConfig::fast()).submit_in(&circuit.netlist, &ctx);
        let result = job.wait().expect("job completes");
        assert!(result.layout.is_complete(&circuit.netlist));
        let progress = job.progress();
        assert!(progress.done);
        assert_eq!(progress.phase, None);
        assert!(progress.solves > 0);
        // `poll` after completion returns the same result.
        let polled = job.poll().expect("finished").expect("ok");
        assert_eq!(polled.solver.solves, result.solver.solves);
        ctx.shutdown();
    }

    #[test]
    fn invalid_netlist_surfaces_through_the_job_api() {
        // An empty netlist fails validation-by-construction later in the
        // flow: use an area-less netlist via the builder's error path
        // instead — here we just check the deadline error plumbing with a
        // zero deadline, which trips before any solve.
        let ctx = JobContext::new(1);
        let circuit = benchmarks::tiny_circuit();
        let config = PilpConfig {
            deadline: Some(Duration::ZERO),
            ..PilpConfig::fast()
        };
        let job = Pilp::new(config).submit_in(&circuit.netlist, &ctx);
        assert!(matches!(job.wait(), Err(PilpError::DeadlineExceeded)));
        ctx.shutdown();
    }

    /// The speculation gate counts worker slots, not trees: on a 2-worker
    /// pool a 1-thread flow may overlap two trees, but a multi-thread
    /// flow may not — two of its trees would compete for the same
    /// workers — and a second flow in flight closes the gate too.
    #[test]
    fn speculation_gate_needs_idle_slots_for_both_trees() {
        let ctx = JobContext::new(2);
        let idle = ctx.pool().idle_workers();
        assert_eq!(idle, 2);
        let slots = |config: PilpConfig| {
            Pilp::new(config)
                .solve_options(PilpPhase::Refinement)
                .threads
        };
        assert!(speculation_gate(1, idle, slots(PilpConfig::fast())));
        assert!(!speculation_gate(1, idle, slots(PilpConfig::thorough())));
        let two_threads = PilpConfig {
            solver_threads: 2,
            ..PilpConfig::fast()
        };
        assert!(!speculation_gate(1, idle, slots(two_threads.clone())));
        assert!(speculation_gate(1, 4, slots(two_threads)));
        assert!(!speculation_gate(2, idle, slots(PilpConfig::fast())));
        ctx.shutdown();
    }
}
