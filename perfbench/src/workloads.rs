//! The three workloads. Each is one client in a closed loop: the next
//! request goes out only after the previous one has been answered.
//!
//! * `cold` — one seeded circuit at a time, each in a fresh
//!   `JobContext`, so neither cache carries over between layouts.
//! * `sweep` — `Pilp::submit_sweep_in` over near-1.0 target-scale
//!   variants of one seeded circuit, in a fresh context per sweep.
//! * `service` — the `serve` binary over its pipes: two pipelined
//!   submits, validate/export/status traffic while they solve, SVG
//!   results, then a cache replay of both.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rfic_core::{JobContext, Layout, Pilp, PilpConfig};
use rfic_netlist::json::Json;
use rfic_netlist::{wire, Netlist};

use crate::inputs::{self, Input};
use crate::serve::{number, ok, Serve};
use crate::trace::{Poller, Watch};
use crate::{check, procfs, Env, Samples, WORKERS};

/// Set-ups per run; the median is reported.
const SETUP_REPEATS: usize = 31;
/// Set-ups per `service` run (each starts a `serve` process).
const SERVICE_SETUP_REPEATS: usize = 7;
/// Circuits generated per run. The loops cycle through them; `service`
/// never resubmits one cold, so it stops when they run out.
const COLD_INPUTS: usize = 64;
const SWEEP_INPUTS: usize = 32;
const SERVICE_INPUTS: usize = 256;
/// In-process validations (`wire::from_str`) per laid-out netlist:
/// enough that every run holds well over a thousand, so the tail is p99.
const VALIDATE_REPEATS: usize = 32;
/// Variants per sweep and their largest deviation from scale 1.0.
const SWEEP_VARIANTS: usize = 3;
const SWEEP_SPREAD: f64 = 0.01;
/// Client think time between two rounds of light `service` requests.
const SERVICE_THINK: Duration = Duration::from_millis(2);

/// One iteration of an in-process loop.
struct Step<'a> {
    env: &'a Env,
    pilp: &'a Pilp,
    /// The poller, when this iteration is traced.
    poller: Option<&'a Poller>,
    traced: bool,
    index: usize,
    request: u64,
    root: Option<usize>,
}

/// Runs `iteration` over the run's inputs in a closed loop until the
/// deadline. Set-up (generating `count` inputs and starting a context)
/// is timed [`SETUP_REPEATS`] times first.
fn in_process(
    env: &Env,
    s: &mut Samples,
    count: usize,
    iteration: fn(&Step, &mut Samples, &Input),
) -> Result<(), String> {
    let mut inputs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let start = Instant::now();
        inputs = inputs::family(env.seed, count);
        JobContext::new(WORKERS).shutdown();
        s.setup_s.push(start.elapsed().as_secs_f64());
    }
    let pilp = Pilp::new(PilpConfig::fast());
    let poller = env.trace.then(|| Poller::start(Arc::clone(&env.tracer)));
    let usage = procfs::Usage::start(0.0);
    let deadline = env.deadline();
    let mut index = 0;
    while Instant::now() < deadline {
        let traced = env.traced(index);
        env.tracer.set_enabled(traced);
        let request = index as u64;
        let root = env
            .tracer
            .open(&format!("{}.request", env.workload), request, None);
        let step = Step {
            env,
            pilp: &pilp,
            poller: poller.as_ref().filter(|_| traced),
            traced,
            index,
            request,
            root,
        };
        iteration(&step, s, &inputs[index % inputs.len()]);
        env.tracer.close(root);
        index += 1;
    }
    (s.layer.cpu_util, s.layer.steal_pct) = usage.finish(0.0);
    s.peak_rss_mb = procfs::self_peak_rss_mb();
    if let Some(poller) = poller {
        s.layer.poll = poller.finish();
    }
    Ok(())
}

impl Step<'_> {
    /// Validates the request document `repeats` times in-process, as a
    /// library caller ingesting a wire document does, and returns the
    /// parsed netlist.
    fn validate(&self, s: &mut Samples, input: &Input, repeats: usize) -> Option<Netlist> {
        let mut parsed = None;
        for _ in 0..repeats {
            let start = Instant::now();
            let outcome = self.span("wire.from_str", || wire::from_str(&input.doc));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let outcome = match outcome {
                Ok(netlist) if netlist.fingerprint() == input.netlist.fingerprint() => Ok(netlist),
                Ok(_) => Err(format!(
                    "{}: wire round trip changed the netlist",
                    input.netlist.name()
                )),
                Err(e) => Err(format!("{}: {e}", input.netlist.name())),
            };
            parsed = Some(s.check(outcome)?);
            s.validate_ms.push(ms);
        }
        parsed
    }

    fn span<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.env.tracer.span(name, self.request, self.root, f)
    }

    /// Hands `ctx` to the poller, when this iteration is traced.
    fn watch(&self, ctx: &Arc<JobContext>, layouts: usize) {
        if let Some(poller) = self.poller {
            poller.watch(Watch {
                ctx: Arc::clone(ctx),
                job: None,
                sweep: None,
                request: self.request,
                layouts,
            });
        }
    }

    fn unwatch(&self) {
        if let Some(poller) = self.poller {
            poller.unwatch();
        }
    }

    /// Lays `netlist` out in `ctx` and checks the result; returns the
    /// latency (submit → verified result) with the result.
    fn layout(
        &self,
        ctx: &Arc<JobContext>,
        netlist: &Netlist,
    ) -> (f64, Result<(rfic_core::PilpResult, check::Quality), String>) {
        let start = Instant::now();
        let job = Arc::new(self.span("pilp.submit_in", || self.pilp.submit_in(netlist, ctx)));
        if let Some(poller) = self.poller {
            poller.attach_job(Arc::clone(&job));
        }
        let result = self.span("job.wait", || job.wait());
        let outcome = self.span("check.layout", || {
            let result = result.map_err(|e| format!("{}: {e}", netlist.name()))?;
            let quality = check::layout(netlist, &result.layout)?;
            Ok((result, quality))
        });
        let latency = start.elapsed().as_secs_f64();
        self.unwatch();
        (latency, outcome)
    }

    /// Resubmits an already-solved netlist into the same context (a
    /// FlowCache replay) and checks it returns the identical layout.
    fn replay(&self, s: &mut Samples, ctx: &Arc<JobContext>, netlist: &Netlist, expected: &Layout) {
        self.watch(ctx, 0);
        let (latency, outcome) = self.layout(ctx, netlist);
        let outcome = outcome.and_then(|(result, _)| {
            if result.layout == *expected {
                Ok(())
            } else {
                Err(format!(
                    "{}: replay returned a different layout",
                    netlist.name()
                ))
            }
        });
        if s.check(outcome).is_some() {
            s.replay_s.push(latency);
        }
    }
}

pub fn cold(env: &Env, s: &mut Samples) -> Result<(), String> {
    in_process(env, s, COLD_INPUTS, |step, s, input| {
        let Some(netlist) = step.validate(s, input, VALIDATE_REPEATS) else {
            return;
        };
        let ctx = Arc::new(JobContext::new(WORKERS));
        step.watch(&ctx, 1);
        let (latency, outcome) = step.layout(&ctx, &netlist);
        if let Some((result, quality)) = s.check(outcome) {
            s.cold_layout(latency, step.traced, &quality);
            s.batch(1, latency);
            s.solver(&result, step.traced);
            step.replay(s, &ctx, &netlist, &result.layout);
        }
        ctx.shutdown();
    })
}

/// The target scales of sweep `index`: seeded, within ±1 % of 1.0.
fn sweep_scales(seed: u64, index: usize) -> Vec<f64> {
    (0..SWEEP_VARIANTS as u64)
        .map(|k| {
            let u = inputs::unit(inputs::mix(seed, index as u64), k);
            1.0 + (2.0 * u - 1.0) * SWEEP_SPREAD
        })
        .collect()
}

pub fn sweep(env: &Env, s: &mut Samples) -> Result<(), String> {
    in_process(env, s, SWEEP_INPUTS, |step, s, input| {
        let Some(netlist) = step.validate(s, input, VALIDATE_REPEATS * SWEEP_VARIANTS) else {
            return;
        };
        let variants: Vec<Netlist> = sweep_scales(step.env.seed, step.index)
            .into_iter()
            .map(|scale| netlist.with_target_scale(scale))
            .collect();
        let ctx = Arc::new(JobContext::new(WORKERS));
        step.watch(&ctx, variants.len());
        let start = Instant::now();
        let handle = Arc::new(step.span("pilp.submit_sweep_in", || {
            step.pilp.submit_sweep_in(&variants, &ctx)
        }));
        if let Some(poller) = step.poller {
            poller.attach_sweep(Arc::clone(&handle));
        }
        let results = step.span("sweep.wait", || handle.wait());
        let outcomes: Vec<_> = step.span("check.layout", || {
            variants
                .iter()
                .zip(results)
                .map(|(variant, result)| {
                    let result = result.map_err(|e| format!("{}: {e}", variant.name()))?;
                    let quality = check::layout(variant, &result.layout)?;
                    Ok((result, quality))
                })
                .collect()
        });
        let wall = start.elapsed().as_secs_f64();
        step.unwatch();
        let verified: Vec<_> = outcomes.into_iter().filter_map(|o| s.check(o)).collect();
        if verified.len() == variants.len() {
            for (result, quality) in &verified {
                s.cold_layout(wall / variants.len() as f64, step.traced, quality);
                s.solver(result, step.traced);
            }
            s.batch(variants.len(), wall);
            step.replay(s, &ctx, &variants[0], &verified[0].0.layout);
        }
        ctx.shutdown();
    })
}

/// One cold `serve` job of a round.
struct ServedJob<'a> {
    input: &'a Input,
    id: f64,
    sent: Instant,
    /// Phase index and the instant a status poll first reported it.
    phases: Vec<(usize, Instant)>,
    /// The verified SVG, once fetched.
    svg: Option<String>,
}

fn phase_index(phase: &str) -> Option<usize> {
    ["phase 1", "phase 2", "phase 3"]
        .iter()
        .position(|p| phase.starts_with(p))
}

/// Checks a `result` response: the service's quality fields and, from
/// outside, the SVG it returned.
fn verify_result(input: &Input, response: &Json) -> Result<(String, check::Quality), String> {
    let name = input.netlist.name();
    let strips = input.netlist.microstrips().len() as f64;
    if number(response, "drc_violations")? != 0.0 {
        return Err(format!("{name}: serve reports DRC violations: {response}"));
    }
    if number(response, "exact_lengths")? != strips {
        return Err(format!("{name}: serve reports inexact lengths: {response}"));
    }
    let svg = response
        .get("svg")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{name}: result without svg"))?;
    let mut quality = check::svg(&input.netlist, svg)?;
    // The SVG's two printed decimals bound the length check above; the
    // reported error is the service's own, at full precision.
    quality.max_length_error = number(response, "max_length_error_um")?;
    Ok((svg.to_string(), quality))
}

fn job_line(op: &str, id: f64, svg: bool) -> String {
    let extra = if svg { ",\"svg\":true" } else { "" };
    format!("{{\"op\":\"{op}\",\"job\":{id}{extra}}}")
}

pub fn service(env: &Env, s: &mut Samples) -> Result<(), String> {
    let binary = env
        .serve
        .as_ref()
        .ok_or("the service workload needs --serve PATH")?;
    let mut inputs = Vec::new();
    let mut serve = None;
    for r in 0..SERVICE_SETUP_REPEATS {
        let start = Instant::now();
        inputs = inputs::family(env.seed, SERVICE_INPUTS);
        let mut process = Serve::spawn(binary, WORKERS)?;
        process.call(&inputs::validate_line(&inputs[0].doc))?;
        s.setup_s.push(start.elapsed().as_secs_f64());
        if r + 1 < SERVICE_SETUP_REPEATS {
            process.shutdown()?;
        } else {
            serve = Some(process);
        }
    }
    let mut serve = serve.expect("at least one set-up");
    let usage = procfs::Usage::start(serve.cpu_seconds());
    let deadline = env.deadline();
    let mut validations = 0usize;
    let mut round = 0usize;
    while Instant::now() < deadline && 2 * round + 1 < inputs.len() {
        let traced = env.traced(round);
        env.tracer.set_enabled(traced);
        let request = round as u64;
        let root = env.tracer.open("service.round", request, None);
        let tracer = &env.tracer;

        // 1. Two pipelined submits of distinct inline netlists.
        let mut jobs = Vec::new();
        for input in &inputs[2 * round..2 * round + 2] {
            let sent = serve.send(&inputs::submit_line(&input.doc))?;
            jobs.push(ServedJob {
                input,
                id: 0.0,
                sent,
                phases: Vec::new(),
                svg: None,
            });
        }
        let round_start = jobs[0].sent;
        let submit_span = tracer.open("serve.submit", request, root);
        for job in &mut jobs {
            job.id = number(&ok(serve.receive()?)?, "job")?;
        }
        tracer.close(submit_span);

        // 2–3. Light traffic while both solve; each result is fetched
        // as soon as a status poll reports its job done.
        while jobs.iter().any(|job| job.svg.is_none()) {
            let input = &inputs[validations % inputs.len()];
            validations += 1;
            let start = Instant::now();
            let response = tracer.span("serve.validate", request, root, || {
                serve.call(&inputs::validate_line(&input.doc))
            });
            let ms = start.elapsed().as_secs_f64() * 1e3;
            let expected = format!("{:016x}", input.netlist.fingerprint());
            let outcome = response.and_then(|r| {
                match r.get("fingerprint").and_then(Json::as_str) == Some(expected.as_str()) {
                    true => Ok(()),
                    false => Err(format!("validate fingerprint mismatch: {r}")),
                }
            });
            if s.check(outcome).is_some() {
                s.validate_ms.push(ms);
            }
            let exported = tracer.span("serve.export", request, root, || {
                serve.call("{\"op\":\"export\",\"circuit\":\"tiny\"}")
            });
            s.check(exported.map(|_| ()));

            for job in jobs.iter_mut().filter(|job| job.svg.is_none()) {
                let status = tracer.span("serve.status", request, root, || {
                    serve.call(&job_line("status", job.id, false))
                })?;
                let seen = Instant::now();
                if let Some(phase) = status
                    .get("phase")
                    .and_then(Json::as_str)
                    .and_then(phase_index)
                {
                    if job.phases.last().map(|(p, _)| *p) != Some(phase) {
                        job.phases.push((phase, seen));
                    }
                }
                match status.get("state").and_then(Json::as_str) {
                    Some("running") => continue,
                    Some("done") => {}
                    _ => {
                        s.check::<()>(Err(format!("job failed: {status}")));
                        return Err("a service job failed".into());
                    }
                }
                let response = tracer.span("serve.result", request, root, || {
                    serve.call(&job_line("result", job.id, true))
                });
                let outcome = response.and_then(|r| {
                    let counters =
                        ["solves", "simplex_iterations", "runtime_ms"].map(|key| number(&r, key));
                    Ok((verify_result(job.input, &r)?, counters))
                });
                let latency = job.sent.elapsed().as_secs_f64();
                let Some(((svg, quality), [solves, pivots, runtime_ms])) = s.check(outcome) else {
                    return Err("a service result failed its check".into());
                };
                s.cold_layout(latency, traced, &quality);
                s.layer.solves.push(solves?);
                s.layer.pivots.push(pivots?);
                s.layer.flow_s.push(runtime_ms? / 1e3);
                book_phases(s, &job.phases, seen);
                job.svg = Some(svg);
            }
            std::thread::sleep(SERVICE_THINK);
        }
        s.batch(jobs.len(), round_start.elapsed().as_secs_f64());

        // 4–5. Resubmit both; they replay from the FlowCache and must
        // return byte-identical SVGs.
        let mut replays = Vec::new();
        for job in &jobs {
            replays.push((serve.send(&inputs::submit_line(&job.input.doc))?, job));
        }
        let mut ids = Vec::new();
        for _ in &replays {
            ids.push(number(&ok(serve.receive()?)?, "job")?);
        }
        for ((sent, job), id) in replays.into_iter().zip(ids) {
            let response = tracer.span("serve.result.replay", request, root, || {
                serve.call(&job_line("result", id, true))
            });
            let latency = sent.elapsed().as_secs_f64();
            let outcome = response.and_then(|r| {
                let svg = r.get("svg").and_then(Json::as_str).unwrap_or("");
                match Some(svg) == job.svg.as_deref() {
                    true => Ok(()),
                    false => Err(format!("{}: replay SVG differs", job.input.netlist.name())),
                }
            });
            if s.check(outcome).is_some() {
                s.replay_s.push(latency);
            }
        }
        tracer.close(root);
        round += 1;
    }
    (s.layer.cpu_util, s.layer.steal_pct) = usage.finish(serve.cpu_seconds());
    s.peak_rss_mb = procfs::self_peak_rss_mb() + serve.peak_rss_mb();
    serve.shutdown()
}

/// Phase durations of one `serve` job from the instants status polls
/// first reported each phase; a phase no poll saw counts as zero.
fn book_phases(s: &mut Samples, phases: &[(usize, Instant)], done: Instant) {
    let mut durations = [0.0; 3];
    for (k, (phase, since)) in phases.iter().enumerate() {
        let until = phases.get(k + 1).map_or(done, |(_, at)| *at);
        durations[*phase] = until.saturating_duration_since(*since).as_secs_f64();
    }
    for (slot, value) in s.layer.phase_s.iter_mut().zip(durations) {
        slot.push(value);
    }
}
