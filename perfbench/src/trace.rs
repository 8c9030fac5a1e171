//! Outside-in tracing: spans recorded around the benchmark's own calls
//! into each layer, and a poller that derives phase and solver-tree spans
//! from the counters the program exposes.
//!
//! Nothing here reaches inside the program: spans wrap public calls made
//! by the benchmark, and the poller only reads `JobHandle::progress`,
//! `SweepHandle::completed`, `SolverPool::completed_trees` and the cache
//! hit/miss counters. Spans stay in memory until [`Tracer::write`].

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rfic_core::{JobContext, JobHandle, PilpPhase, SweepHandle};

/// How often the poller samples the watched job.
const POLL_INTERVAL: Duration = Duration::from_millis(1);

/// One recorded interval.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    /// Request the span belongs to; spans of one request share it.
    request: u64,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span store. Disabled tracers record nothing, so the same
/// workload code runs traced and untraced.
pub struct Tracer {
    origin: Instant,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            enabled: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Switches recording on or off (the traced run alternates).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Opens a span and returns its id (`None` while disabled).
    pub fn open(&self, name: &str, request: u64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled() {
            return None;
        }
        let now = self.origin.elapsed();
        let mut spans = self.spans.lock().unwrap();
        spans.push(Span {
            name: name.to_string(),
            request,
            parent,
            start: now,
            end: now,
        });
        Some(spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&self, id: Option<usize>) {
        if let Some(id) = id {
            let now = self.origin.elapsed();
            self.spans.lock().unwrap()[id].end = now;
        }
    }

    /// Records an interval measured elsewhere (poller-derived spans).
    pub fn record(&self, name: &str, request: u64, start: Instant, end: Instant) {
        if !self.enabled() {
            return;
        }
        let since = |t: Instant| t.saturating_duration_since(self.origin);
        self.spans.lock().unwrap().push(Span {
            name: name.to_string(),
            request,
            parent: None,
            start: since(start),
            end: since(end),
        });
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, request, parent);
        let value = f();
        self.close(id);
        value
    }

    pub fn len(&self) -> usize {
        self.spans.lock().unwrap().len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().unwrap();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
                s.request,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            )?;
        }
        out.flush()
    }
}

/// What the poller watches: one context plus the job or sweep running
/// in it.
pub struct Watch {
    pub ctx: Arc<JobContext>,
    pub job: Option<Arc<JobHandle>>,
    pub sweep: Option<Arc<SweepHandle>>,
    pub request: u64,
    /// Cold layouts the watch covers (the variants of a sweep); `0` for
    /// a cache replay, whose trees are booked apart.
    pub layouts: usize,
}

/// Counters accumulated by the poller over every watch.
#[derive(Debug, Default, Clone)]
pub struct PollLog {
    /// Duration of each solver tree, from the gaps between successive
    /// `completed_trees` increments of a context that runs one flow at a
    /// time (so the gap also holds the flow's work between two solves).
    pub tree_s: Vec<f64>,
    /// Trees completed while a cold layout was watched.
    pub trees: u64,
    /// Trees completed while a cache replay was watched.
    pub replay_trees: u64,
    /// Cold layouts and replays watched.
    pub cold_layouts: u64,
    pub replays: u64,
    pub flow_hits: usize,
    pub flow_misses: usize,
    pub model_hits: usize,
    pub model_misses: usize,
    pub samples: u64,
}

struct PollState {
    watch: Option<Watch>,
    started: Instant,
    last_trees: u64,
    last_tree_at: Instant,
    phase: Option<PilpPhase>,
    phase_since: Instant,
    variants_done: usize,
    variant_since: Instant,
    /// Cache counters of the watched context when the watch began.
    cache_base: [usize; 4],
    log: PollLog,
}

/// Background sampler of the watched job's progress counters.
pub struct Poller {
    state: Arc<Mutex<PollState>>,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
    tracer: Arc<Tracer>,
}

impl Poller {
    pub fn start(tracer: Arc<Tracer>) -> Poller {
        let now = Instant::now();
        let state = Arc::new(Mutex::new(PollState {
            watch: None,
            started: now,
            last_trees: 0,
            last_tree_at: now,
            phase: None,
            phase_since: now,
            variants_done: 0,
            variant_since: now,
            cache_base: [0; 4],
            log: PollLog::default(),
        }));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            let tracer = Arc::clone(&tracer);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    sample(&mut state.lock().unwrap(), &tracer);
                    std::thread::sleep(POLL_INTERVAL);
                }
            })
        };
        Poller {
            state,
            stop,
            thread: Some(thread),
            tracer,
        }
    }

    /// Starts watching a context (and its job or sweep).
    pub fn watch(&self, watch: Watch) {
        let mut state = self.state.lock().unwrap();
        let now = Instant::now();
        state.last_trees = watch.ctx.pool().completed_trees();
        state.last_tree_at = now;
        state.started = now;
        state.phase = None;
        state.phase_since = now;
        state.variants_done = 0;
        state.variant_since = now;
        state.cache_base = cache_counters(&watch.ctx);
        state.watch = Some(watch);
    }

    /// Attaches the job submitted into the watched context. Watch the
    /// context first and submit after, so no tree escapes the count.
    pub fn attach_job(&self, job: Arc<JobHandle>) {
        if let Some(watch) = self.state.lock().unwrap().watch.as_mut() {
            watch.job = Some(job);
        }
    }

    /// Attaches the sweep submitted into the watched context.
    pub fn attach_sweep(&self, sweep: Arc<SweepHandle>) {
        if let Some(watch) = self.state.lock().unwrap().watch.as_mut() {
            watch.sweep = Some(sweep);
        }
    }

    /// Takes a final sample, books the context's cache counters and stops
    /// watching it.
    pub fn unwatch(&self) {
        let mut state = self.state.lock().unwrap();
        sample(&mut state, &self.tracer);
        if let Some(watch) = state.watch.take() {
            if watch.layouts > 0 {
                state.log.cold_layouts += watch.layouts as u64;
            } else {
                state.log.replays += 1;
            }
            let [fh, fm, mh, mm] = cache_counters(&watch.ctx);
            let [bfh, bfm, bmh, bmm] = state.cache_base;
            state.log.flow_hits += fh - bfh;
            state.log.flow_misses += fm - bfm;
            state.log.model_hits += mh - bmh;
            state.log.model_misses += mm - bmm;
            if let Some(phase) = state.phase.take() {
                let since = state.phase_since;
                self.tracer.record(
                    &phase_span_name(phase),
                    watch.request,
                    since,
                    Instant::now(),
                );
            }
            let started = state.started;
            self.tracer
                .record("poll.watch", watch.request, started, Instant::now());
        }
    }

    /// Stops the thread and returns the accumulated counters.
    pub fn finish(mut self) -> PollLog {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
        let log = self.state.lock().unwrap().log.clone();
        log
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// FlowCache hits and misses, then ModelCache hits and misses.
fn cache_counters(ctx: &JobContext) -> [usize; 4] {
    let flow = ctx.cache();
    let model = ctx.model_cache();
    [flow.hits(), flow.misses(), model.hits(), model.misses()]
}

fn phase_span_name(phase: PilpPhase) -> String {
    match phase {
        PilpPhase::GlobalRouting => "poll.phase.routing",
        PilpPhase::Visualization => "poll.phase.visualization",
        PilpPhase::Refinement => "poll.phase.refinement",
    }
    .to_string()
}

fn sample(state: &mut PollState, tracer: &Tracer) {
    let Some(watch) = state.watch.as_ref() else {
        return;
    };
    let now = Instant::now();
    let request = watch.request;
    let cold = watch.layouts > 0;
    let trees = watch.ctx.pool().completed_trees();
    let progress = watch.job.as_ref().map(|job| job.progress());
    let variants = watch.sweep.as_ref().map(|sweep| sweep.completed());
    state.log.samples += 1;

    // Several trees finishing between two samples share the gap evenly.
    let finished = trees.saturating_sub(state.last_trees);
    if finished > 0 {
        let gap = now.saturating_duration_since(state.last_tree_at) / finished as u32;
        let mut start = state.last_tree_at;
        for _ in 0..finished {
            if cold {
                state.log.tree_s.push(gap.as_secs_f64());
            }
            tracer.record("poll.milp.tree", request, start, start + gap);
            start += gap;
        }
        if cold {
            state.log.trees += finished;
        } else {
            state.log.replay_trees += finished;
        }
        state.last_trees = trees;
        state.last_tree_at = now;
    }

    if let Some(progress) = progress {
        if progress.phase != state.phase {
            if let Some(phase) = state.phase {
                tracer.record(&phase_span_name(phase), request, state.phase_since, now);
            }
            state.phase = progress.phase;
            state.phase_since = now;
        }
    }
    if let Some(done) = variants {
        if done > state.variants_done {
            tracer.record("poll.sweep.variant", request, state.variant_since, now);
            state.variants_done = done;
            state.variant_since = now;
        }
    }
}
