//! Flight-recorder contracts for the fleet clock.
//!
//! Three pillars:
//! * **feature-off-free** — enabling the recorder never perturbs the
//!   simulation: a recorder-on run with its `telemetry` field stripped
//!   is bit-identical to the recorder-off run, across random fault
//!   plans × scaling policies × systems × clocks × ring capacities;
//! * **clock-independent streams** — serial and parallel clocks agree
//!   bit for bit on the *entire* result including the merged event
//!   stream and sampled series (wall-clock `ClockProfile` numbers are
//!   excluded from equality by construction);
//! * **stream/counter consistency** — the merged stream is sorted and
//!   uniquely sequenced, `Completed` events reconcile exactly with the
//!   fleet counters when no history was overwritten, and the per-lane
//!   requeue/retry attribution sums to the fleet totals.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultPlan};
use workload::cluster::{ClockKind, ClusterConfig, ControllerConfig, RouterKind};
use workload::elastic::{ElasticConfig, ScalingPolicyKind, ThresholdPolicy, WarmPoolConfig};
use workload::trace::TraceConfig;
use workload::{
    ClusterResult, EventKind, RequeueCause, SystemKind, TelemetryConfig, TierConfig, TiersConfig,
};

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        2.5e4
    } else {
        6e4
    }
}

fn run_with(
    cfg: &ClusterConfig,
    router: RouterKind,
    clock: ClockKind,
    telemetry: Option<TelemetryConfig>,
) -> ClusterResult {
    let mut cfg = cfg.clone();
    cfg.clock = clock;
    cfg.telemetry = telemetry;
    let mut r = router.make(cfg.seed);
    workload::run_cluster(&cfg, r.as_mut())
}

/// Drops the recorder's own output so a recorder-on run can be compared
/// bit for bit against a recorder-off run.
fn stripped(mut r: ClusterResult) -> ClusterResult {
    r.telemetry = None;
    r
}

/// A busy chaotic fleet: two dissimilar GPUs, a warm lane, threshold
/// scaling, and a generated fault plan — every event family fires.
fn chaos_cfg(fault_seed: u64) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.5).with_bursts(2.0, 0.4);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let mut e = ElasticConfig::new(
        WarmPoolConfig {
            provision_delay_us: 5e3,
            provision_jitter: 0.2,
            ..WarmPoolConfig::new(vec![GpuModel::RtxA2000])
        },
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_backlog: 2.0,
            ..Default::default()
        }),
    );
    e.min_replicas = 1;
    e.replace_after_us = 8e3;
    cfg.elastic = Some(e);
    cfg.chaos = Some(FaultPlan::generate(fault_seed, 3, cfg.horizon_us, 1.5));
    cfg
}

/// The merged stream is canonically ordered: non-decreasing in time,
/// globally unique sequence numbers, strictly increasing at equal
/// instants.
fn assert_canonical_order(tel: &workload::TelemetryResult) {
    let mut seen = std::collections::HashSet::new();
    for pair in tel.events.windows(2) {
        assert!(
            pair[0].at_us <= pair[1].at_us
                || (pair[0].at_us == pair[1].at_us && pair[0].seq < pair[1].seq),
            "merged stream out of order: {:?} before {:?}",
            pair[0],
            pair[1]
        );
        if pair[0].at_us == pair[1].at_us {
            assert!(pair[0].seq < pair[1].seq, "ties must sort by seq");
        }
    }
    for e in &tel.events {
        assert!(
            seen.insert(e.seq),
            "duplicate seq {} in merged stream",
            e.seq
        );
    }
}

/// Recorder on vs off on the chaos scenario: stripped results are
/// bit-identical on both clocks, and the recorded stream reconciles
/// with the fleet counters (`Completed` events == completions, SLO-ok
/// events == `slo_met`, per lane and fleet-wide) when nothing was
/// overwritten.
#[test]
fn recorder_is_invisible_and_reconciles_with_counters() {
    let cfg = chaos_cfg(42);
    for clock in [ClockKind::Serial, ClockKind::Parallel] {
        let off = run_with(&cfg, RouterKind::ShortestBacklog, clock, None);
        let on = run_with(
            &cfg,
            RouterKind::ShortestBacklog,
            clock,
            Some(TelemetryConfig::default()),
        );
        let tel = on.telemetry.clone().expect("recorder was enabled");
        assert_eq!(
            stripped(on.clone()),
            off,
            "{clock:?}: recorder perturbed the run"
        );

        assert_canonical_order(&tel);
        assert_eq!(
            tel.dropped_events, 0,
            "default ring must hold this scenario"
        );
        let completed: Vec<_> = tel
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Completed { slo_ok, .. } => Some((e.lane, slo_ok)),
                _ => None,
            })
            .collect();
        assert_eq!(completed.len() as u64, on.requests);
        assert_eq!(
            completed.iter().filter(|(_, ok)| *ok).count() as u64,
            on.slo_met
        );
        for (r, lane) in on.replicas.iter().enumerate() {
            assert_eq!(
                completed.iter().filter(|(l, _)| *l == r as u32).count() as u64,
                lane.requests,
                "lane {r} completion events disagree with its counter"
            );
        }
        assert!(
            tel.events
                .iter()
                .any(|e| matches!(e.kind, EventKind::FaultOnset { .. })),
            "the fault plan must leave onset events in the stream"
        );
        assert!(!tel.tick_us.is_empty(), "controller ticks must sample");
        assert!(!tel.series.is_empty(), "series registry must populate");
    }
}

/// Per-lane requeue/retry attribution sums to the fleet totals under
/// chaos: `requeued == Σ lane.requeued + refused_arrivals` and
/// `retries == Σ lane.retries`.
#[test]
fn requeue_attribution_sums_to_fleet_totals() {
    for fault_seed in [7u64, 1234, 98765] {
        let cfg = chaos_cfg(fault_seed);
        let res = run_with(
            &cfg,
            RouterKind::P2cSlo,
            ClockKind::Parallel,
            Some(TelemetryConfig::default()),
        );
        let lane_requeued: u64 = res.replicas.iter().map(|l| l.requeued).sum();
        let lane_retries: u64 = res.replicas.iter().map(|l| l.retries).sum();
        assert_eq!(
            res.requeued,
            lane_requeued + res.refused_arrivals,
            "seed {fault_seed}: requeue attribution leaks"
        );
        assert_eq!(
            res.retries, lane_retries,
            "seed {fault_seed}: retry attribution leaks"
        );
    }
}

/// Every requeue leaves a `Requeued` event and every timeout drop a
/// `TimeoutDropped` event, whichever path produced it. That includes a
/// tier flush that routes a queued admission at a dead lane whose
/// heartbeat has not aged out yet, bouncing it into the retry path (or
/// straight to a drop for a zero-retry tier). The tiered crash scenario
/// below makes that bounce fire — a dead-route requeue at a controller
/// tick instant, where only flushes deliver — and the event counts must
/// then reconcile exactly with `requeued` and `timeout_drops`.
#[test]
fn requeue_and_drop_events_reconcile_with_counters() {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = 1e5;
    cfg.trace = TraceConfig::apollo_like().scaled(2.5).with_bursts(2.0, 0.4);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    let n_ls = cfg.prepare().n_ls();
    let mut tiers = TiersConfig::new(
        (0..n_ls)
            .map(|task| {
                if task == 0 {
                    TierConfig::guaranteed(8.0)
                } else if task < n_ls / 2 {
                    TierConfig::burstable(2, 3.0)
                } else {
                    TierConfig::best_effort(3, 1.0)
                }
            })
            .collect(),
    );
    tiers.enter_backlog = 4;
    tiers.exit_backlog = 2;
    tiers.hold_ticks = 2;
    tiers.queue_capacity = 8;
    tiers.shed_per_tick = 16;
    cfg.tiers = Some(tiers);
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        0.25 * cfg.horizon_us,
        f64::INFINITY,
    )]));
    let period = cfg.controller.period_us;
    for clock in [ClockKind::Serial, ClockKind::Parallel] {
        let res = run_with(
            &cfg,
            RouterKind::P2cSlo,
            clock,
            Some(TelemetryConfig::default()),
        );
        let tel = res.telemetry.as_ref().expect("recorder was enabled");
        assert_eq!(tel.dropped_events, 0, "the default ring must hold this run");
        let count = |pred: &dyn Fn(&EventKind) -> bool| {
            tel.events.iter().filter(|e| pred(&e.kind)).count() as u64
        };
        assert_eq!(
            count(&|k| matches!(k, EventKind::Requeued { .. })),
            res.requeued,
            "{clock:?}: Requeued events disagree with the requeued counter"
        );
        assert_eq!(
            count(&|k| matches!(k, EventKind::TimeoutDropped { .. })),
            res.timeout_drops,
            "{clock:?}: TimeoutDropped events disagree with the drop counter"
        );
        let flush_bounces = tel
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e.kind,
                    EventKind::Requeued {
                        cause: RequeueCause::DeadRoute,
                        ..
                    }
                ) && (e.at_us / period).fract() == 0.0
            })
            .count();
        assert!(
            flush_bounces > 0,
            "{clock:?}: the scenario must bounce a tier flush off the dead lane"
        );
    }
}

/// A deliberately tiny ring overwrites its oldest events (flight
/// recorders keep the most recent window), reports the loss in
/// `dropped_events`, and still never perturbs the simulation.
#[test]
fn tiny_ring_overwrites_oldest_and_stays_invisible() {
    let cfg = chaos_cfg(42);
    let off = run_with(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel, None);
    let on = run_with(
        &cfg,
        RouterKind::ShortestBacklog,
        ClockKind::Parallel,
        Some(TelemetryConfig {
            ring_capacity: 8,
            profile: false,
        }),
    );
    let tel = on.telemetry.clone().expect("recorder was enabled");
    assert_eq!(stripped(on), off, "ring pressure perturbed the run");
    assert!(tel.dropped_events > 0, "an 8-slot ring must overwrite here");
    // n lanes + the fleet track, 8 slots each.
    let tracks = cfg.gpus.len() + cfg.elastic.as_ref().map_or(0, |e| e.warm_pool.gpus.len()) + 1;
    assert!(
        tel.events.len() <= 8 * tracks,
        "{} events retained from {} rings of 8",
        tel.events.len(),
        tracks
    );
    assert_canonical_order(&tel);
    // The retained window is the *tail*: every ring's survivors are the
    // most recent events, so the earliest retained instant is later than
    // it would be with an unbounded ring.
    assert!(
        tel.events.iter().all(|e| e.at_us <= cfg.horizon_us * 1.01),
        "events past the horizon"
    );
}

/// Deterministic permutation of `0..n` from a seed (Fisher–Yates over a
/// splitmix64 chain).
fn permutation(n: usize, mut seed: u64) -> Vec<usize> {
    let split = |z: &mut u64| {
        *z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = *z;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    };
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (split(&mut seed) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// A random-but-valid elastic config over `n_init` configured lanes and
/// `warm` warm lanes (mirrors the elastic suite's generator).
fn random_elastic(n_init: usize, warm: usize, bits: u64) -> ElasticConfig {
    let pool = WarmPoolConfig {
        provision_delay_us: 2e3 + (bits % 7) as f64 * 3e3,
        provision_jitter: 0.25,
        ..WarmPoolConfig::new(vec![GpuModel::RtxA2000; warm])
    };
    let policy = if bits & 1 == 0 {
        ScalingPolicyKind::Hold
    } else {
        ScalingPolicyKind::Threshold(ThresholdPolicy {
            up_ratio: 0.6 + (bits >> 1 & 3) as f64 * 0.3,
            down_ratio: 0.3,
            up_backlog: 1.0 + (bits >> 3 & 7) as f64,
            down_backlog: 2.0,
            step: 1 + (bits >> 6 & 1) as usize,
        })
    };
    let mut e = ElasticConfig::new(pool, policy);
    e.min_replicas = 1 + (bits >> 7) as usize % n_init.max(1);
    e.max_replicas = n_init + warm;
    e.up_cooldown_us = (bits >> 9 & 1) as f64 * 1.5e4;
    e.down_cooldown_us = (bits >> 10 & 1) as f64 * 1.5e4;
    if bits >> 11 & 1 == 1 {
        e.breach_drain_ticks = 2;
        e.breach_drain_ratio = 0.8;
    }
    if bits >> 12 & 1 == 1 {
        e.replace_after_us = 8e3;
    }
    e
}

/// A random cluster config shared by both acceptance properties.
#[allow(clippy::too_many_arguments)]
fn random_cfg(
    n_replicas: usize,
    warm: usize,
    elastic_bits: u64,
    system_idx: usize,
    scale: f64,
    seed: u64,
    fault_seed: u64,
    intensity: f64,
    perm_seed: u64,
) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000; n_replicas],
        SystemKind::all()[system_idx],
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(scale);
    cfg.seed = seed;
    cfg.controller = ControllerConfig {
        period_us: 1.2e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg.elastic = Some(random_elastic(n_replicas, warm, elastic_bits));
    cfg.chaos = Some(FaultPlan::generate(
        fault_seed,
        n_replicas + warm,
        cfg.horizon_us,
        intensity,
    ));
    cfg.advance_order = permutation(n_replicas + warm, perm_seed);
    cfg
}

/// Ring capacities spanning heavy-overwrite to lossless.
const RING_CAPS: [usize; 3] = [16, 256, 4096];

proptest! {
    /// The acceptance property: enabling the recorder never changes the
    /// simulation. Across random fault plans × scaling policies ×
    /// systems × clocks × routers × ring capacities, a recorder-on run
    /// with its `telemetry` field stripped is bit-identical to the
    /// recorder-off run.
    #[test]
    fn recorder_presence_never_perturbs_the_simulation(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        mode in (0usize..3, 0usize..2, 0usize..3),
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.0),
        perm_seed in 0u64..1_000_000,
    ) {
        let (warm, elastic_bits) = pool;
        let (router_idx, clock_idx, ring_idx) = mode;
        let clock_serial = clock_idx == 1;
        let (fault_seed, intensity) = fault;
        let cfg = random_cfg(
            n_replicas, warm, elastic_bits, system_idx, scale, seed,
            fault_seed, intensity, perm_seed,
        );
        let router = RouterKind::all()[router_idx];
        let clock = if clock_serial { ClockKind::Serial } else { ClockKind::Parallel };
        let tcfg = TelemetryConfig {
            ring_capacity: RING_CAPS[ring_idx],
            profile: ring_idx != 1,
        };
        let off = run_with(&cfg, router, clock, None);
        let on = run_with(&cfg, router, clock, Some(tcfg));
        prop_assert!(on.telemetry.is_some());
        prop_assert_eq!(stripped(on), off);
    }

    /// Serial and parallel clocks agree bit for bit on the *entire*
    /// recorder-on result — merged event stream, dropped counts,
    /// sampled series — under random fault plans and scaling policies.
    /// (Wall-clock profile numbers compare equal by construction: they
    /// are measurements, not simulation state.)
    #[test]
    fn clocks_agree_on_merged_event_streams(
        n_replicas in 1usize..4,
        pool in (0usize..3, 0u64..8192),
        system_idx in 0usize..6,
        mode in (0usize..3, 0usize..3),
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.0),
        perm_seed in 0u64..1_000_000,
    ) {
        let (warm, elastic_bits) = pool;
        let (router_idx, ring_idx) = mode;
        let (fault_seed, intensity) = fault;
        let cfg = random_cfg(
            n_replicas, warm, elastic_bits, system_idx, scale, seed,
            fault_seed, intensity, perm_seed,
        );
        let router = RouterKind::all()[router_idx];
        let tcfg = TelemetryConfig {
            ring_capacity: RING_CAPS[ring_idx],
            profile: true,
        };
        let serial = run_with(&cfg, router, ClockKind::Serial, Some(tcfg.clone()));
        let parallel = run_with(&cfg, router, ClockKind::Parallel, Some(tcfg));
        let stream = serial.telemetry.as_ref().expect("recorder on");
        assert_canonical_order(stream);
        prop_assert_eq!(serial, parallel);
    }
}
