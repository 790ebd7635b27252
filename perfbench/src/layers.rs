//! The traced run: the per-layer ledger.
//!
//! Every number here is measured from this file, around calls into each
//! layer's public functions, or read from what the program already
//! reports (the fleet clock's `ClockProfile`, the result's counters).
//! Nothing is traced inside the program. End-to-end metrics are never
//! taken from this run; the traced passes' cost against untraced passes
//! of the same run is reported as `telemetry.overhead_frac`.

use crate::report::{Metric, Report};
use crate::workloads::{self, PassOutcome, Prepared, Workload};
use crate::{measure, median, sys, wall_per_pass, Args, Setup};
use exec_sim::{Engine, LaunchConfig};
use rayon::prelude::*;
use sgdrc_core::serving::{Policy, ReplicaSim, Scenario, ServingState, SimContext};
use std::hint::black_box;
use std::process::Command;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::cluster::{ClusterConfig, ClusterCtx, RouterKind};
use workload::telemetry::TelemetryConfig;
use workload::trace::TraceConfig;
use workload::trace::{per_service_traces, ArrivalStream};
use workload::{ClockProfile, Deployment, LatencyHistogram, SystemKind};

/// Wall time each microbenchmark loop runs for.
const MICRO: Duration = Duration::from_millis(120);

/// A per-layer metric plus the base it is a ratio or total of, printed
/// beside it in the ledger.
struct Entry {
    metric: Metric,
    base: String,
}

fn entry(name: &str, value: f64, unit: &'static str, base: impl Into<String>) -> Entry {
    Entry {
        metric: Metric::new(name, value, unit),
        base: base.into(),
    }
}

pub fn traced_run(
    args: &Args,
    setup: &Setup,
    prepared: &mut Prepared,
    reference: &PassOutcome,
) -> Report {
    // A quarter of the budget each for untraced passes, traced passes
    // and the one-worker child; set-ups, warm-ups, replays and
    // microbenchmarks take roughly the rest.
    let quarter = Duration::from_secs_f64(args.seconds / 4.0);
    let untraced = measure(prepared, quarter);

    let mut traced_prep = workloads::prepare(args.workload, args.seed, args.smoke, true);
    let warm = workloads::run_pass(&mut traced_prep);
    drop(warm);
    let traced = measure(&mut traced_prep, quarter);

    let child = one_worker_child(args, quarter);
    let mut out = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    for s in untraced.iter().chain(&traced) {
        attempted += s.outcome.sim.injected;
        if s.outcome.digest != reference.digest || !s.outcome.correct() {
            eprintln!("check failed: a traced-run pass differs from the first pass");
            failed += s.outcome.sim.injected;
        }
    }
    let mut correct = failed == 0;
    if child
        .as_ref()
        .is_some_and(|c| !c.correct || c.digest != reference.digest)
    {
        eprintln!("check failed: the one-worker child simulated something else");
        correct = false;
    }

    let w = args.workload;
    let base_wall = wall_per_pass(&untraced);
    let traced_wall = wall_per_pass(&traced);

    // --- dnn + core::profiler (set-up) --------------------------------
    out.push(entry(
        "setup.deploy_ms",
        setup.deploy_ms,
        "ms",
        format!(
            "cold compile and profile of {:?}, mean of the set-up probes",
            w.gpus()
        ),
    ));
    out.push(entry(
        "setup.prepare_ms",
        setup.prepare_ms,
        "ms",
        "prepare() or sweep grid after the compile, mean of the set-up probes",
    ));
    out.push(entry(
        "setup.kernels_compiled",
        setup.kernels_compiled as f64,
        "count",
        "kernels of every LS and BE model over the workload's GPU models",
    ));

    // --- workload::trace ---------------------------------------------
    let (arrivals, gen_ns) = trace_generation(args);
    out.push(entry(
        "trace.arrivals",
        arrivals as f64,
        "count",
        "LS arrivals of the distinct traces one pass generates",
    ));
    out.push(entry(
        "trace.gen_ns_per_arrival",
        gen_ns,
        "ns",
        "generation wall time / trace.arrivals, median of 3",
    ));

    // --- exec-sim -----------------------------------------------------
    let dep = Deployment::cached(w.gpus()[0]);
    out.push(entry(
        "engine.events",
        reference.events as f64,
        "count",
        "engine events of one pass",
    ));
    for k in [1, 2, 4] {
        out.push(entry(
            &format!("engine.step_ns_k{k}"),
            engine_step_ns(&dep, k),
            "ns",
            format!("Engine::step + relaunch with {k} resident kernel(s), per step"),
        ));
    }

    // --- core serving + policies -------------------------------------
    let replays = serving_replays(args);
    let total = |f: fn(&Replay) -> f64| replays.iter().map(|(_, r)| f(r)).sum::<f64>();
    out.push(entry(
        "serving.advance_calls",
        total(|r| r.advance_calls as f64),
        "count",
        format!("ReplicaSim::advance calls replaying {}", replay_subject(w)),
    ));
    out.push(entry(
        "serving.advance_self_ns",
        total(|r| r.advance_self_ns as f64),
        "ns",
        "advance wall time minus the policy dispatch time inside it",
    ));
    out.push(entry(
        "policy.dispatch_calls",
        total(|r| r.dispatch_calls as f64),
        "count",
        "Policy::dispatch calls in the replay",
    ));
    out.push(entry(
        "policy.dispatch_ns",
        total(|r| r.dispatch_ns as f64),
        "ns",
        "Policy::dispatch wall time in the replay",
    ));
    out.push(entry(
        "policy.be_preemptions",
        total(|r| r.be_preemptions as f64),
        "count",
        "BE preemptions in the replay",
    ));
    for system in SystemKind::all() {
        let (_, r) = replays
            .iter()
            .find(|(s, _)| *s == system)
            .expect("every system is replayed");
        out.push(entry(
            &format!("policy.dispatch_ns.{}", system_key(system)),
            r.dispatch_ns as f64,
            "ns",
            "Policy::dispatch wall time of this system's replay",
        ));
    }

    // --- workload::cluster fleet clock --------------------------------
    let traced_profiles: Vec<ClockProfile> = traced
        .iter()
        .filter_map(|s| s.outcome.profile.clone())
        .collect();
    out.extend(if traced_profiles.is_empty() {
        let (profiles, events) = one_lane_clock(args);
        clock_entries(
            &profiles,
            events,
            "ClockProfile of the first SGDRC cell run as a 1-replica fleet \
             (the sweep runs no fleet clock), median of 3",
        )
    } else {
        clock_entries(
            &traced_profiles,
            reference.events,
            "ClockProfile of one traced pass, median over passes",
        )
    });

    // --- rayon pool ----------------------------------------------------
    let workers = rayon::current_pool_workers();
    out.push(entry(
        "pool.workers",
        workers as f64,
        "count",
        format!("detected_cpus {}", sys::detected_cpus()),
    ));
    for n in [6, 64] {
        out.push(entry(
            &format!("pool.batch_ns_{n}"),
            pool_batch_ns(n),
            "ns",
            format!("par_iter().for_each over {n} trivial tasks, per batch"),
        ));
    }
    let (speedup, base) = match &child {
        Some(c) => (
            c.wall_per_pass / base_wall,
            format!(
                "1-worker child {:.6} s / default pool {base_wall:.6} s per pass",
                c.wall_per_pass
            ),
        ),
        None => (1.0, "pool has one worker: no child run".into()),
    };
    out.push(entry("pool.speedup_vs_1_worker", speedup, "x", base));

    // --- workload::metrics sketches ------------------------------------
    let lats: Vec<f64> = replays
        .iter()
        .flat_map(|(_, r)| r.latencies.iter().copied())
        .collect();
    let lanes = sketch_lanes(args);
    out.push(entry(
        "sketch.records",
        count(reference, "sketch.records"),
        "count",
        "latencies recorded into the merged sketch in one pass",
    ));
    out.push(entry(
        "sketch.record_ns",
        sketch_record_ns(&lats),
        "ns",
        format!(
            "LatencyHistogram::record per sample, {} replayed latencies",
            lats.len()
        ),
    ));
    out.push(entry(
        "sketch.merge_ns",
        sketch_merge_ns(&lats, lanes),
        "ns",
        format!("LatencyHistogram::merge per sketch, {lanes} sketches into one"),
    ));

    // --- control plane --------------------------------------------------
    for name in [
        "ctl.requeued",
        "ctl.retries",
        "ctl.timeout_drops",
        "ctl.ls_shed",
        "ctl.refused_admission",
        "ctl.be_migrations",
        "ctl.be_shed",
    ] {
        out.push(entry(
            name,
            count(reference, name),
            "count",
            "ClusterResult, one pass",
        ));
    }

    // --- workload::sweep ------------------------------------------------
    let cells = count(reference, "sweep.cells");
    out.push(entry("sweep.cells", cells, "count", "cells of one pass"));
    out.push(entry(
        "sweep.chunks",
        count(reference, "sweep.chunks"),
        "count",
        "par_chunks fan-out chunks of one pass",
    ));
    out.push(entry(
        "sweep.cells_per_s",
        cells / base_wall,
        "1/s",
        format!("sweep.cells / untraced wall per pass {base_wall:.6} s"),
    ));

    // --- workload::telemetry ------------------------------------------
    out.push(entry(
        "telemetry.overhead_frac",
        traced_wall / base_wall - 1.0,
        "frac",
        format!(
            "traced {traced_wall:.6} s / untraced {base_wall:.6} s per pass, minus 1 ({})",
            if matches!(w, Workload::Fig17Sweep) {
                "the sweep has no recorder: noise floor"
            } else {
                "flight recorder and clock profile on"
            }
        ),
    ));

    println!(
        "per-layer ledger ({} untraced, {} traced passes):",
        untraced.len(),
        traced.len()
    );
    for e in &out {
        println!(
            "  {:<34} {:>24} {:<6} {}",
            e.metric.name,
            format!("{:?}", e.metric.value),
            e.metric.unit,
            e.base
        );
    }
    Report {
        correct,
        attempted,
        failed,
        metrics: out.into_iter().map(|e| e.metric).collect(),
    }
}

fn count(o: &PassOutcome, name: &str) -> f64 {
    o.counts
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v as f64)
}

fn system_key(s: SystemKind) -> &'static str {
    match s {
        SystemKind::MultiStreaming => "multistreaming",
        SystemKind::Tgs => "tgs",
        SystemKind::Mps => "mps",
        SystemKind::Orion => "orion",
        SystemKind::SgdrcStatic => "sgdrc_static",
        SystemKind::Sgdrc => "sgdrc",
    }
}

fn replay_subject(w: Workload) -> &'static str {
    match w {
        Workload::Fig17Sweep => "the first cell of each system",
        _ => "lane 0's share of the fleet trace under each system",
    }
}

/// What the one-worker child reported.
struct Child {
    wall_per_pass: f64,
    digest: u64,
    correct: bool,
}

/// Re-runs this workload untraced in a child whose pool has one worker,
/// for `budget`. `None` when the pool already has one worker. The
/// parent waits, so the host is never oversubscribed.
fn one_worker_child(args: &Args, budget: Duration) -> Option<Child> {
    if rayon::current_pool_workers() == 1 {
        return None;
    }
    let exe = std::env::current_exe().expect("path of the running benchmark");
    let mut cmd = Command::new(exe);
    cmd.env(rayon::THREADS_ENV, "1").args([
        "--workload",
        args.workload.name(),
        "--seed",
        &args.seed.to_string(),
        "--seconds",
        &budget.as_secs_f64().to_string(),
        "--trace",
        "0",
    ]);
    if args.smoke {
        cmd.arg("--smoke");
    }
    let out = cmd.output().expect("run the one-worker child");
    assert!(out.status.success(), "the one-worker child failed");
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The first token after `key` on the line that holds it.
    let field = |key: &str| -> &str {
        stdout
            .lines()
            .find_map(|l| l.split_once(key))
            .and_then(|(_, rest)| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("the child printed no {key:?}"))
    };
    Some(Child {
        wall_per_pass: field("wall_per_pass_s: ")
            .parse()
            .expect("the child's wall time per pass"),
        digest: u64::from_str_radix(field("digest: "), 16).expect("hex digest"),
        correct: stdout
            .lines()
            .last()
            .is_some_and(|l| l.starts_with("{\"correct\": true")),
    })
}

/// Generates the arrivals of one pass exactly as the program does
/// (materialized in retained mode, streamed in streaming mode, one
/// trace per distinct (seed, load) in the sweep). Returns the arrival
/// count and the median ns per arrival of three generations.
fn trace_generation(args: &Args) -> (u64, f64) {
    let n_ls = dnn::zoo::ModelId::ls_models().len();
    let fleet = workloads::cluster_config(args.workload, args.seed, args.smoke);
    let grid = workloads::sweep_grid(args.seed, args.smoke);
    let gen = || -> u64 {
        match &fleet {
            Some(cfg) if cfg.streaming => {
                let mut s = ArrivalStream::new(&cfg.trace, n_ls, cfg.horizon_us, cfg.seed);
                let mut n = 0;
                while black_box(s.pop()).is_some() {
                    n += 1;
                }
                n
            }
            Some(cfg) => {
                let t = per_service_traces(&cfg.trace, n_ls, cfg.horizon_us, cfg.seed);
                black_box(&t).iter().map(|v| v.len() as u64).sum()
            }
            None => {
                let mut n = 0;
                for rep in 0..grid.replications {
                    let seed = workload::cell_seed(grid.base_seed, rep as u64);
                    for load in &grid.loads {
                        let t = per_service_traces(
                            &grid.trace.scaled(load.scale()),
                            n_ls,
                            grid.horizon_us,
                            seed,
                        );
                        n += black_box(&t).iter().map(|v| v.len() as u64).sum::<u64>();
                    }
                }
                n
            }
        }
    };
    let mut ns = Vec::new();
    let mut arrivals = 0;
    for _ in 0..3 {
        let t = Instant::now();
        arrivals = gen();
        ns.push(t.elapsed().as_nanos() as f64 / arrivals.max(1) as f64);
    }
    (arrivals, median(&ns))
}

/// Engine cost per event with `k` kernels resident: every step
/// completes one kernel and a fresh one is launched in its place, so
/// the running set stays at `k`. Kernels cycle through the
/// deployment's LS models.
fn engine_step_ns(dep: &Deployment, k: usize) -> f64 {
    let kernels: Vec<_> = dep.ls_tasks.iter().flat_map(|t| t.kernels.iter()).collect();
    let cfg = LaunchConfig::exclusive(&dep.spec);
    let mut engine = Engine::new(dep.spec.clone());
    let mut next = 0;
    let mut launch = |engine: &mut Engine| {
        engine.launch_prepared(kernels[next % kernels.len()], &cfg);
        next += 1;
    };
    for _ in 0..k {
        launch(&mut engine);
    }
    let mut steps = 0u64;
    let t = Instant::now();
    while t.elapsed() < MICRO {
        for _ in 0..256 {
            black_box(engine.step().expect("a resident kernel completes"));
            launch(&mut engine);
        }
        steps += 256;
    }
    t.elapsed().as_nanos() as f64 / steps as f64
}

/// Wall ns per `par_iter().for_each` batch of `n` trivial tasks on the
/// persistent pool.
fn pool_batch_ns(n: usize) -> f64 {
    let items: Vec<u64> = (0..n as u64).collect();
    let mut batches = 0u64;
    let t = Instant::now();
    while t.elapsed() < MICRO {
        for _ in 0..64 {
            items.par_iter().for_each(|x| {
                black_box(x);
            });
        }
        batches += 64;
    }
    t.elapsed().as_nanos() as f64 / batches as f64
}

/// How many sketches one merge step folds: the fleet's lanes, or the
/// sweep's cells.
fn sketch_lanes(args: &Args) -> usize {
    match workloads::cluster_config(args.workload, args.seed, args.smoke) {
        Some(cfg) => cfg.gpus.len(),
        None => workloads::sweep_grid(args.seed, args.smoke).cells().len(),
    }
}

fn sketch_record_ns(lats: &[f64]) -> f64 {
    if lats.is_empty() {
        return 0.0;
    }
    let mut h = LatencyHistogram::new();
    let mut records = 0u64;
    let t = Instant::now();
    while t.elapsed() < MICRO {
        h.reset();
        for &v in lats {
            h.record(black_box(v));
        }
        records += lats.len() as u64;
    }
    black_box(h.count());
    t.elapsed().as_nanos() as f64 / records as f64
}

/// Splits the population round-robin over `lanes` sketches and times
/// folding them all into one, per merged sketch.
fn sketch_merge_ns(lats: &[f64], lanes: usize) -> f64 {
    if lats.is_empty() {
        return 0.0;
    }
    let mut parts = vec![LatencyHistogram::new(); lanes];
    for (i, &v) in lats.iter().enumerate() {
        parts[i % lanes].record(v);
    }
    let mut merged = LatencyHistogram::new();
    let mut merges = 0u64;
    let t = Instant::now();
    while t.elapsed() < MICRO {
        merged.reset();
        for p in &parts {
            merged.merge(p);
        }
        merges += lanes as u64;
    }
    assert_eq!(
        merged.count(),
        lats.len() as u64,
        "merge keeps every sample"
    );
    t.elapsed().as_nanos() as f64 / merges as f64
}

/// What one `ReplicaSim` replay measured.
#[derive(Default)]
struct Replay {
    advance_calls: u64,
    advance_self_ns: u64,
    dispatch_calls: u64,
    dispatch_ns: u64,
    be_preemptions: u64,
    latencies: Vec<f64>,
}

/// A policy wrapper that times every `dispatch`.
struct Timed {
    inner: Box<dyn Policy>,
    calls: u64,
    ns: u64,
}

impl Policy for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch(&mut self, st: &mut ServingState) {
        let t = Instant::now();
        self.inner.dispatch(st);
        self.ns += t.elapsed().as_nanos() as u64;
        self.calls += 1;
    }

    fn on_ls_arrival(&mut self, st: &mut ServingState) {
        self.inner.on_ls_arrival(st);
    }

    fn next_timer(&self) -> Option<f64> {
        self.inner.next_timer()
    }

    fn has_timers(&self) -> bool {
        self.inner.has_timers()
    }

    fn on_run_start(&mut self, st: &mut ServingState) {
        self.inner.on_run_start(st);
    }
}

/// Drives one scenario through `ReplicaSim` the way the fleet clock
/// does — advance to each arrival, inject it — timing each layer.
fn replay(scenario: &Scenario, policy: Box<dyn Policy>) -> Replay {
    let mut ctx = SimContext::new();
    let mut p = Timed {
        inner: policy,
        calls: 0,
        ns: 0,
    };
    let mut sim = ReplicaSim::prepare(scenario, &mut ctx);
    sim.begin(&mut p);
    let mut r = Replay::default();
    let mut timed_advance = |sim: &mut ReplicaSim, p: &mut Timed, until: Option<f64>| {
        let before = p.ns;
        let t = Instant::now();
        let due = sim.advance(p, until);
        let wall = t.elapsed().as_nanos() as u64;
        r.advance_calls += 1;
        r.advance_self_ns += wall.saturating_sub(p.ns - before);
        due
    };
    for a in scenario.arrivals.merged() {
        if !timed_advance(&mut sim, &mut p, Some(a.at_us)) {
            break;
        }
        sim.inject_arrival(&mut p, a.task as usize, a.at_us);
    }
    timed_advance(&mut sim, &mut p, None);
    let stats = sim.finish(&mut ctx);
    r.dispatch_calls = p.calls;
    r.dispatch_ns = p.ns;
    r.be_preemptions = stats.be_preemptions;
    r.latencies = stats
        .ls_completed
        .iter()
        .flatten()
        .map(|c| c.latency_us())
        .collect();
    r
}

/// The serving replays of a workload, one per system: for a fleet,
/// lane 0 fed its share (1/replicas) of the fleet's trace; for the
/// sweep, the first cell of every system.
fn serving_replays(args: &Args) -> Vec<(SystemKind, Replay)> {
    let n_ls = dnn::zoo::ModelId::ls_models().len();
    let scenario = |gpu, trace: &TraceConfig, horizon_us, seed, be, ls_instances| {
        let dep = Deployment::cached(gpu);
        Scenario {
            spec: dep.spec.clone(),
            ls: Arc::clone(&dep.ls_tasks),
            be: dep.be_singleton(be),
            ls_instances,
            arrivals: Arc::new(per_service_traces(trace, n_ls, horizon_us, seed).into()),
            horizon_us,
        }
    };
    let fleet = workloads::cluster_config(args.workload, args.seed, args.smoke);
    let cells = workloads::sweep_grid(args.seed, args.smoke).cells();
    SystemKind::all()
        .into_iter()
        .map(|system| {
            let scn = match &fleet {
                Some(cfg) => scenario(
                    cfg.gpus[0],
                    &cfg.trace.scaled(1.0 / cfg.gpus.len() as f64),
                    cfg.horizon_us,
                    cfg.seed,
                    cfg.be_jobs[0],
                    cfg.ls_instances,
                ),
                None => {
                    let c = cells
                        .iter()
                        .find(|c| c.system == system)
                        .expect("the grid runs every system");
                    scenario(
                        c.gpu,
                        &c.trace.scaled(c.load.scale()),
                        c.horizon_us,
                        c.seed,
                        c.be_index,
                        c.ls_instances,
                    )
                }
            };
            (system, replay(&scn, system.make(&scn.spec)))
        })
        .collect()
}

/// Clock profiles for a workload that runs no fleet clock (the sweep):
/// its first SGDRC cell driven as a 1-replica fleet with the profile
/// on, three times.
fn one_lane_clock(args: &Args) -> (Vec<ClockProfile>, u64) {
    let cells = workloads::sweep_grid(args.seed, args.smoke).cells();
    let c = cells
        .iter()
        .find(|c| c.system == SystemKind::Sgdrc)
        .expect("the grid runs SGDRC");
    let mut cfg = ClusterConfig::new(vec![c.gpu], SystemKind::Sgdrc);
    cfg.trace = c.trace.scaled(c.load.scale());
    cfg.horizon_us = c.horizon_us;
    cfg.seed = c.seed;
    cfg.ls_instances = c.ls_instances;
    cfg.be_jobs = vec![c.be_index];
    cfg.telemetry = Some(TelemetryConfig {
        ring_capacity: 256,
        profile: true,
    });
    let prep = cfg.prepare();
    let mut ctx = ClusterCtx::new();
    let mut events = 0;
    let profiles = (0..3)
        .map(|_| {
            let mut router = RouterKind::ShortestBacklog.make(cfg.seed);
            let r = workload::run_cluster_prepared(&prep, router.as_mut(), &mut ctx);
            events = r.engine_events;
            r.telemetry.expect("the recorder ran").profile
        })
        .collect();
    (profiles, events)
}

/// The fleet clock's phases from the traced passes (median per field),
/// all zero for the sweep, which runs no fleet clock.
fn clock_entries(profiles: &[ClockProfile], events: u64, base: &str) -> Vec<Entry> {
    let med = |f: fn(&ClockProfile) -> u64| -> f64 {
        median(&profiles.iter().map(|p| f(p) as f64).collect::<Vec<_>>())
    };
    let epochs = med(|p| p.epochs);
    let lanes = med(|p| p.lanes_advanced);
    let advance = med(|p| p.advance_ns);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    vec![
        entry("clock.epochs", epochs, "count", base),
        entry("clock.lanes_advanced", lanes, "count", base),
        entry(
            "clock.lanes_per_epoch",
            ratio(lanes, epochs),
            "count",
            "clock.lanes_advanced / clock.epochs",
        ),
        entry("clock.collect_ns", med(|p| p.collect_ns), "ns", base),
        entry("clock.advance_ns", advance, "ns", base),
        entry("clock.route_ns", med(|p| p.route_ns), "ns", base),
        entry("clock.tick_ns", med(|p| p.tick_ns), "ns", base),
        entry("clock.merge_ns", med(|p| p.merge_ns), "ns", base),
        entry("clock.total_ns", med(|p| p.total_ns), "ns", base),
        entry(
            "clock.advance_ns_per_lane",
            ratio(advance, lanes),
            "ns",
            "clock.advance_ns / clock.lanes_advanced",
        ),
        entry(
            "engine.events_per_lane_advance",
            ratio(events as f64, lanes),
            "count",
            "engine.events / clock.lanes_advanced",
        ),
    ]
}
