//! The four workloads: how each is configured from the workload seed,
//! how one simulation pass runs, and what the pass must satisfy.
//!
//! Every pass of a workload simulates the same fixed amount of work, so
//! passes are interchangeable samples of host cost, and their simulated
//! statistics must agree bit for bit.

use crate::digest::Digest;
use gpu_spec::GpuModel;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{ClusterConfig, ClusterCtx, ClusterResult, ControllerConfig, RouterKind};
use workload::sweep::{run_sweep, CellSpec, SweepGrid, SweepOptions, SweepResult};
use workload::telemetry::{ClockProfile, TelemetryConfig};
use workload::tiers::{TierConfig, TiersConfig};
use workload::trace::{per_service_traces, TraceConfig};
use workload::{Deployment, LatencyHistogram, PreparedCluster, SystemKind};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fleet8,
    Fleet512,
    OverloadTiers,
    Fig17Sweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Fleet8,
        Workload::Fleet512,
        Workload::OverloadTiers,
        Workload::Fig17Sweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fleet8 => "fleet-8",
            Workload::Fleet512 => "fleet-512",
            Workload::OverloadTiers => "overload-tiers",
            Workload::Fig17Sweep => "fig17-sweep",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The distinct GPU models the workload deploys, in compile order.
    pub fn gpus(self) -> Vec<GpuModel> {
        match self {
            Workload::Fleet8 | Workload::OverloadTiers => {
                vec![GpuModel::RtxA2000, GpuModel::Gtx1080]
            }
            Workload::Fleet512 => vec![GpuModel::RtxA2000],
            Workload::Fig17Sweep => GpuModel::all().to_vec(),
        }
    }
}

/// Per-pass simulated horizons; `smoke` shrinks every one of them so a
/// schema test finishes in seconds.
struct Horizons {
    fleet8_us: f64,
    fleet512_us: f64,
    overload_us: f64,
    sweep_cell_us: f64,
    sweep_replications: usize,
}

fn horizons(smoke: bool) -> Horizons {
    if smoke {
        Horizons {
            fleet8_us: 1e5,
            fleet512_us: 2e4,
            overload_us: 1e5,
            sweep_cell_us: 1e5,
            sweep_replications: 1,
        }
    } else {
        Horizons {
            fleet8_us: 1e7,
            fleet512_us: 1e5,
            overload_us: 2e7,
            sweep_cell_us: 2e5,
            sweep_replications: 12,
        }
    }
}

/// The heterogeneous headline fleet: five RTX A2000 and three GTX 1080.
fn headline_fleet() -> Vec<GpuModel> {
    use GpuModel::{Gtx1080 as G, RtxA2000 as A};
    vec![A, A, G, A, G, A, G, A]
}

/// Apollo bursts sharpened (×2.2 over a quarter of each period) plus a
/// ±35% diurnal swing with one and a half cycles per horizon.
fn fleet_trace(per_service_scale: f64, horizon_us: f64) -> TraceConfig {
    TraceConfig::apollo_like()
        .scaled(per_service_scale)
        .with_bursts(2.2, 0.25)
        .with_diurnal(0.35, horizon_us / 1e6 / 1.5)
}

/// The three-class tier map: service 0 Guaranteed (weight 8), the next
/// third Burstable (weight 3), the rest BestEffort (weight 1).
fn overload_tiers(n_ls: usize) -> TiersConfig {
    let mut t = TiersConfig::new(
        (0..n_ls)
            .map(|task| {
                if task == 0 {
                    TierConfig::guaranteed(8.0)
                } else if task <= n_ls / 3 {
                    TierConfig::burstable(2, 3.0)
                } else {
                    TierConfig::best_effort(3, 1.0)
                }
            })
            .collect(),
    );
    t.enter_backlog = 10;
    t.exit_backlog = 5;
    t.hold_ticks = 2;
    t.queue_capacity = 64;
    t.shed_per_tick = 32;
    t
}

/// The fleet configuration of a fleet workload (`None` for the sweep).
pub fn cluster_config(w: Workload, seed: u64, smoke: bool) -> Option<ClusterConfig> {
    let h = horizons(smoke);
    let cfg = match w {
        Workload::Fleet8 => {
            let mut cfg = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
            cfg.horizon_us = h.fleet8_us;
            cfg.trace = fleet_trace(5.5, cfg.horizon_us);
            cfg.controller = ControllerConfig {
                period_us: 5e4,
                adaptive_ch_be: true,
                ..Default::default()
            };
            cfg
        }
        Workload::Fleet512 => {
            let n = 512;
            let mut cfg = ClusterConfig::new(vec![GpuModel::RtxA2000; n], SystemKind::Sgdrc);
            cfg.horizon_us = h.fleet512_us;
            cfg.trace = fleet_trace(0.9 * n as f64, cfg.horizon_us);
            cfg.controller.period_us = 5e4;
            cfg.streaming = true;
            cfg
        }
        Workload::OverloadTiers => {
            let mut cfg = ClusterConfig::new(headline_fleet(), SystemKind::Sgdrc);
            cfg.horizon_us = h.overload_us;
            cfg.trace = fleet_trace(16.0, cfg.horizon_us);
            cfg.controller = ControllerConfig {
                period_us: 2e4,
                adaptive_ch_be: true,
                ..Default::default()
            };
            let mut plan = FaultPlan::new(vec![FaultEvent::crash(
                0,
                0.25 * cfg.horizon_us,
                f64::INFINITY,
            )]);
            plan.degradation.shed_be_backlog = 2;
            cfg.chaos = Some(plan);
            let n_ls = dnn::zoo::ModelId::ls_models().len();
            cfg.tiers = Some(overload_tiers(n_ls));
            cfg
        }
        Workload::Fig17Sweep => return None,
    };
    Some(ClusterConfig { seed, ..cfg })
}

/// The Fig. 17 grid of the sweep workload.
pub fn sweep_grid(seed: u64, smoke: bool) -> SweepGrid {
    let h = horizons(smoke);
    let mut grid = SweepGrid::fig17_style(h.sweep_cell_us, h.sweep_replications);
    grid.base_seed = seed;
    grid
}

/// A workload made ready to run passes: the set-up product of
/// `ClusterConfig::prepare` or of the sweep grid. A run holds one or
/// two, so the variants' sizes do not matter.
#[allow(clippy::large_enum_variant)]
pub enum Prepared {
    Fleet {
        prep: PreparedCluster,
        ctx: ClusterCtx,
    },
    Sweep {
        grid: SweepGrid,
        cells: Vec<CellSpec>,
        /// LS arrivals every cell of the grid receives, in cell order.
        arrivals: Vec<u64>,
    },
}

/// Builds the pass-ready form of a workload (deployments come from the
/// process-wide memo, so the first call in a process compiles them).
pub fn prepare(w: Workload, seed: u64, smoke: bool, telemetry: bool) -> Prepared {
    match cluster_config(w, seed, smoke) {
        Some(mut cfg) => {
            if telemetry {
                cfg.telemetry = Some(TelemetryConfig {
                    ring_capacity: 256,
                    profile: true,
                });
            }
            Prepared::Fleet {
                prep: cfg.prepare(),
                ctx: ClusterCtx::new(),
            }
        }
        None => {
            let grid = sweep_grid(seed, smoke);
            for &g in &grid.gpus {
                Deployment::cached(g);
            }
            let cells = grid.cells();
            let arrivals = sweep_arrivals(&cells);
            Prepared::Sweep {
                grid,
                cells,
                arrivals,
            }
        }
    }
}

/// LS arrivals per sweep cell: cells sharing (seed, load) replay one
/// trace, so each distinct trace is generated once.
fn sweep_arrivals(cells: &[CellSpec]) -> Vec<u64> {
    let n_ls = dnn::zoo::ModelId::ls_models().len();
    let mut memo: Vec<((u64, u64), u64)> = Vec::new();
    cells
        .iter()
        .map(|c| {
            let key = (c.seed, c.load.scale().to_bits());
            if let Some(&(_, n)) = memo.iter().find(|(k, _)| *k == key) {
                return n;
            }
            let n = per_service_traces(&c.trace.scaled(c.load.scale()), n_ls, c.horizon_us, c.seed)
                .iter()
                .map(|v| v.len() as u64)
                .sum();
            memo.push((key, n));
            n
        })
        .collect()
}

/// The raw product of one pass.
pub enum PassResult {
    Fleet(Box<ClusterResult>),
    Sweep(SweepResult),
}

/// Runs one pass of a prepared workload.
pub fn run_pass(p: &mut Prepared) -> PassResult {
    match p {
        Prepared::Fleet { prep, ctx } => {
            let mut router = RouterKind::ShortestBacklog.make(prep.config().seed);
            PassResult::Fleet(Box::new(workload::run_cluster_prepared(
                prep,
                router.as_mut(),
                ctx,
            )))
        }
        Prepared::Sweep { cells, .. } => {
            PassResult::Sweep(run_sweep(cells, &SweepOptions::default()))
        }
    }
}

/// What the modelled GPUs did in one pass.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    pub injected: u64,
    pub completed: u64,
    pub slo_met: u64,
    pub p50_us: f64,
    pub p99_us: f64,
    pub latency_samples: u64,
    pub be_completed: u64,
    pub simulated_s: f64,
    pub weighted_goodput_hz: f64,
    /// SGDRC over Orion BE throughput on matching sweep cells.
    pub be_vs_orion_x: Option<f64>,
}

/// One pass, reduced: its simulated statistics, a digest of every
/// simulated statistic, and the correctness checks it passed or failed.
pub struct PassOutcome {
    pub events: u64,
    pub sim: SimStats,
    pub digest: u64,
    pub checks: Vec<(&'static str, bool)>,
    /// Per-layer counters read from the result (control plane, sketch,
    /// sweep fan-out), by per-layer metric name.
    pub counts: Vec<(&'static str, u64)>,
    /// The fleet clock's phase profile, when the recorder ran.
    pub profile: Option<ClockProfile>,
}

impl PassOutcome {
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }
}

pub fn outcome(p: &Prepared, r: &PassResult) -> PassOutcome {
    match (p, r) {
        (Prepared::Fleet { prep, .. }, PassResult::Fleet(r)) => fleet_outcome(prep, r),
        (
            Prepared::Sweep {
                grid,
                cells,
                arrivals,
            },
            PassResult::Sweep(r),
        ) => sweep_outcome(grid, cells, arrivals, r),
        _ => unreachable!("a pass result always matches its workload"),
    }
}

fn fleet_outcome(prep: &PreparedCluster, r: &ClusterResult) -> PassOutcome {
    let cfg = prep.config();
    let sim = SimStats {
        injected: r.arrivals_injected,
        completed: r.requests,
        slo_met: r.slo_met,
        p50_us: r.fleet_percentile(50.0),
        p99_us: r.fleet_percentile(99.0),
        latency_samples: r.fleet_hist.count(),
        be_completed: r.be_completed,
        simulated_s: cfg.horizon_us / 1e6,
        weighted_goodput_hz: r.weighted_goodput_hz,
        be_vs_orion_x: None,
    };
    let conserved = r.arrivals_injected
        == r.requests + r.timeout_drops + r.ls_shed + r.refused_admission + r.in_flight_at_end;
    let tiers_conserved = r
        .tier_outcomes
        .iter()
        .all(|o| std::panic::catch_unwind(|| o.assert_conserved()).is_ok());
    let by_task_sums = r.arrivals_by_task.iter().sum::<u64>() == r.arrivals_injected
        && r.completed_by_task.iter().sum::<u64>() == r.requests;
    let mut checks = vec![
        ("conservation", conserved),
        ("tier_conservation", tiers_conserved),
        ("per_task_ledgers", by_task_sums),
        (
            "sketch_count_eq_requests",
            r.fleet_hist.count() == r.requests,
        ),
        ("slo_met_le_completed", r.slo_met <= r.requests),
        ("arrivals_injected", r.arrivals_injected > 0),
    ];
    if cfg.streaming {
        checks.push(("streaming_retains_nothing", r.retained_completions == 0));
    }
    let counts = vec![
        ("ctl.requeued", r.requeued),
        ("ctl.retries", r.retries),
        ("ctl.timeout_drops", r.timeout_drops),
        ("ctl.ls_shed", r.ls_shed),
        ("ctl.refused_admission", r.refused_admission),
        ("ctl.be_migrations", r.migrations.len() as u64),
        ("ctl.be_shed", r.be_shed),
        ("sketch.records", r.fleet_hist.count()),
    ];
    PassOutcome {
        events: r.engine_events,
        sim,
        digest: fleet_digest(r),
        checks,
        counts,
        profile: r.telemetry.as_ref().map(|t| t.profile.clone()),
    }
}

fn sweep_outcome(
    grid: &SweepGrid,
    cells: &[CellSpec],
    arrivals: &[u64],
    r: &SweepResult,
) -> PassOutcome {
    let injected: u64 = arrivals.iter().sum();
    let slo_met: u64 = r.cells.iter().map(|c| c.slo_met).sum();
    let be_completed: u64 = r.cells.iter().map(|c| c.be_completed).sum();
    let sgdrc: Vec<_> = r
        .cells
        .iter()
        .filter(|c| c.cell.system == SystemKind::Sgdrc)
        .collect();
    let sgdrc_goodput = sgdrc.iter().map(|c| c.goodput_hz).sum::<f64>() / sgdrc.len() as f64;
    // SGDRC and Orion cells that differ only in the system.
    let mut be_sgdrc = 0.0;
    let mut be_orion = 0.0;
    for s in &sgdrc {
        let twin = r.cells.iter().find(|c| {
            c.cell.system == SystemKind::Orion
                && c.cell.gpu == s.cell.gpu
                && c.cell.load == s.cell.load
                && c.cell.be_index == s.cell.be_index
                && c.cell.seed == s.cell.seed
        });
        if let Some(o) = twin {
            be_sgdrc += s.be_throughput_hz;
            be_orion += o.be_throughput_hz;
        }
    }
    let sim = SimStats {
        injected,
        completed: r.total_requests,
        slo_met,
        p50_us: r.latency_hist.percentile(50.0),
        p99_us: r.latency_hist.percentile(99.0),
        latency_samples: r.latency_hist.count(),
        be_completed,
        simulated_s: cells.len() as f64 * grid.horizon_us / 1e6,
        weighted_goodput_hz: sgdrc_goodput,
        be_vs_orion_x: Some(be_sgdrc / be_orion),
    };
    let per_cell_ok =
        r.cells.len() == cells.len()
            && r.cells.iter().zip(cells).zip(arrivals).all(|((s, c), &n)| {
                s.cell == *c && s.ls_requests <= n && s.slo_met <= s.ls_requests
            });
    let checks = vec![
        ("cells_complete_and_ordered", per_cell_ok),
        (
            "sketch_count_eq_requests",
            r.latency_hist.count() == r.total_requests,
        ),
        (
            "slices_partition_sketch",
            r.slices.iter().map(|s| s.hist.count()).sum::<u64>() == r.total_requests,
        ),
        (
            "events_total",
            r.cells.iter().map(|c| c.engine_events).sum::<u64>() == r.total_events,
        ),
        ("orion_twins_found", be_orion > 0.0),
    ];
    let counts = vec![
        ("sketch.records", r.latency_hist.count()),
        ("sweep.cells", r.cells.len() as u64),
        ("sweep.chunks", r.cells.len().div_ceil(r.chunk_size) as u64),
    ];
    PassOutcome {
        events: r.total_events,
        sim,
        digest: sweep_digest(r),
        checks,
        counts,
        profile: None,
    }
}

/// Percentile grid a sketch is digested on: its bins are private, and
/// these ranks pin its shape far more tightly than any metric reads it.
const DIGEST_PERCENTILES: [f64; 13] = [
    1.0, 5.0, 10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9, 99.99, 100.0,
];

fn digest_hist(d: &mut Digest, h: &LatencyHistogram) {
    d.u64(h.count());
    if h.count() == 0 {
        return;
    }
    d.f64(h.min());
    d.f64(h.max());
    for p in DIGEST_PERCENTILES {
        d.f64(h.percentile(p));
    }
}

/// Digest of every simulated statistic of a fleet pass — counters,
/// ledgers, per-replica statistics and completion logs, sketches — but
/// none of the recorder's output, so traced and untraced passes agree.
pub fn fleet_digest(r: &ClusterResult) -> u64 {
    let mut d = Digest::new();
    digest_hist(&mut d, &r.fleet_hist);
    digest_hist(&mut d, &r.redispatch_hist);
    for v in [
        r.requests,
        r.slo_met,
        r.be_completed,
        r.be_preemptions,
        r.engine_events,
        r.arrivals_injected,
        r.requeued,
        r.retries,
        r.timeout_drops,
        r.ls_shed,
        r.be_shed,
        r.in_flight_at_end,
        r.faults_injected,
        r.faults_recovered,
        r.retained_completions,
        r.warm_hits,
        r.warm_misses,
        r.drains_started,
        r.drains_completed,
        r.drain_requeued,
        r.replacements,
        r.refused_arrivals,
        r.refused_admission,
    ] {
        d.u64(v);
    }
    for v in [
        r.goodput_hz,
        r.weighted_goodput_hz,
        r.replica_seconds,
        r.provision_delay_total_us,
    ] {
        d.f64(v);
    }
    for v in [
        &r.arrivals_by_task,
        &r.completed_by_task,
        &r.slo_met_by_task,
    ] {
        d.u64s(v);
    }
    for m in &r.migrations {
        d.f64(m.at_us);
        d.u64s(&[m.job as u64, m.model as u64, m.from as u64, m.to as u64]);
    }
    d.str(&format!("{:?}", r.scale_events));
    d.str(&format!("{:?}", r.tier_outcomes));
    for rep in &r.replicas {
        d.str(rep.gpu.spec().name);
        d.u64s(&[
            rep.routed,
            rep.requests,
            rep.slo_met,
            rep.seed,
            rep.requeued,
            rep.retries,
        ]);
        d.f64(rep.active_us);
        digest_hist(&mut d, &rep.hist);
        let s = &rep.stats;
        d.u64s(&s.be_completed);
        d.u64s(&[s.be_preemptions, s.engine_events, s.ls_requeued]);
        d.f64(s.horizon_us);
        for task in &s.ls_completed {
            d.u64(task.len() as u64);
            for req in task {
                d.f64(req.arrival_us);
                d.f64(req.done_us);
            }
        }
    }
    d.finish()
}

/// Digest of every simulated statistic of a sweep pass: the per-cell
/// summaries and the sketches (whose floating-point sums regroup with
/// the chunking, so they are left out).
pub fn sweep_digest(r: &SweepResult) -> u64 {
    let mut d = Digest::new();
    d.str(&format!("{:?}", r.cells));
    digest_hist(&mut d, &r.latency_hist);
    for s in &r.slices {
        d.str(s.gpu.spec().name);
        d.str(s.system.name());
        digest_hist(&mut d, &s.hist);
    }
    d.u64s(&[r.total_events, r.total_requests]);
    d.finish()
}
