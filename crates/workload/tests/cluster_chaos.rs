//! Fault-injection contracts for the fleet clock.
//!
//! Three pillars:
//! * **bit-identity** — serial and parallel clocks produce identical
//!   `ClusterResult`s (stats, sketches, migrations, resilience
//!   counters) under *any* seeded `FaultPlan`, proptested across
//!   systems, fleet sizes, routers, `advance_order` permutations and
//!   plan seeds (the CI matrix supplies multi-worker pools);
//! * **conservation** — every injected arrival is exactly one of
//!   {completed (possibly after retries), timeout-dropped, shed,
//!   in-flight-at-horizon}, proptested over random fault plans;
//! * **resilience semantics** — crashes requeue to survivors, recovery
//!   restores service, BE jobs evacuate, throttles slow replicas
//!   deterministically, degradation sheds BE before LS, and requeue
//!   beats drop-on-crash on delivered requests.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use workload::chaos::{FaultEvent, FaultKind, FaultPlan};
use workload::cluster::{ClockKind, ClusterConfig, ControllerConfig, RouterKind};
use workload::trace::TraceConfig;
use workload::SystemKind;

fn short_horizon() -> f64 {
    if cfg!(debug_assertions) {
        1e5
    } else {
        2.5e5
    }
}

fn run_with_clock(
    cfg: &ClusterConfig,
    router: RouterKind,
    clock: ClockKind,
) -> workload::ClusterResult {
    let mut cfg = cfg.clone();
    cfg.clock = clock;
    let mut r = router.make(cfg.seed);
    workload::run_cluster(&cfg, r.as_mut())
}

/// A busy two-GPU fleet with a fast controller — the base scenario the
/// unit tests perturb with fault plans.
fn base_cfg() -> ClusterConfig {
    let mut cfg = ClusterConfig::new(
        vec![GpuModel::RtxA2000, GpuModel::Gtx1080],
        SystemKind::Sgdrc,
    );
    cfg.horizon_us = short_horizon();
    cfg.trace = TraceConfig::apollo_like().scaled(2.0);
    cfg.controller = ControllerConfig {
        period_us: 1e4,
        breach_ratio: 0.9,
        adaptive_ch_be: true,
        ..Default::default()
    };
    cfg
}

/// The conservation identity every chaos run must satisfy.
fn assert_conserved(r: &workload::ClusterResult) {
    assert_eq!(
        r.arrivals_injected,
        r.requests + r.timeout_drops + r.ls_shed + r.in_flight_at_end,
        "conservation: injected {} != completed {} + dropped {} + shed {} + in-flight {}",
        r.arrivals_injected,
        r.requests,
        r.timeout_drops,
        r.ls_shed,
        r.in_flight_at_end,
    );
}

/// A crash mid-run with a later recovery: queued work requeues to the
/// survivor, resident BE jobs evacuate through the migration path, and
/// the revived replica serves again — all of it conserved.
#[test]
fn crash_requeues_to_survivor_and_recovery_restores_service() {
    let mut cfg = base_cfg();
    let crash_at = cfg.horizon_us * 0.35;
    let down_for = cfg.horizon_us * 0.3;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0, crash_at, down_for,
    )]));
    let res = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);

    assert_eq!(res.faults_injected, 1);
    assert_eq!(res.faults_recovered, 1);
    assert!(res.requeued > 0, "crash at peak load must orphan requests");
    assert!(
        res.retries > 0,
        "orphaned requests must be re-dispatched to the survivor"
    );
    assert!(
        res.redispatch_hist.count() == res.retries,
        "every successful re-dispatch records its delay"
    );
    // Replica 0 hosted a BE job (round-robin placement) — the crash
    // must have evacuated it.
    assert!(
        res.migrations
            .iter()
            .any(|m| m.from == 0 && m.at_us == crash_at),
        "crash must evacuate replica 0's BE jobs: {:?}",
        res.migrations
    );
    // The revived replica serves again after recovery: it completes
    // more requests than it had at the crash (routing resumes once its
    // heartbeat is fresh).
    assert!(res.replicas[0].requests > 0);
    assert!(res.replicas[1].requests > 0);
    assert_conserved(&res);

    // Against the same fleet without faults: the outage costs goodput.
    let mut happy = cfg.clone();
    happy.chaos = None;
    let base = run_with_clock(&happy, RouterKind::ShortestBacklog, ClockKind::Parallel);
    assert!(
        res.slo_met < base.slo_met,
        "an outage must cost SLO-met completions ({} vs {})",
        res.slo_met,
        base.slo_met
    );
    assert_conserved(&base);
}

/// Requeue-on-crash vs drop-on-crash (`max_retries = 0`), same fault
/// plan otherwise: once the crashed replica recovers and capacity
/// returns, the retry path has delivered strictly more requests and
/// dropped strictly fewer.
#[test]
fn requeue_delivers_more_than_drop_on_crash() {
    let mut cfg = base_cfg();
    let crash_at = cfg.horizon_us * 0.35;
    cfg.chaos = Some(FaultPlan::new(vec![FaultEvent::crash(
        0,
        crash_at,
        cfg.horizon_us * 0.25,
    )]));

    let requeue = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);
    let mut drop_cfg = cfg.clone();
    drop_cfg
        .chaos
        .as_mut()
        .expect("set above")
        .retry
        .max_retries = 0;
    let drop = run_with_clock(&drop_cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);

    // Identical history up to the crash, identical drained set — the
    // retry policy decides its fate.
    assert_eq!(requeue.arrivals_injected, drop.arrivals_injected);
    assert!(
        requeue.requests > drop.requests,
        "requeue must deliver more than drop-on-crash ({} vs {})",
        requeue.requests,
        drop.requests
    );
    assert!(requeue.timeout_drops < drop.timeout_drops);
    assert!(drop.retries == 0 && drop.redispatch_hist.is_empty());
    assert_conserved(&requeue);
    assert_conserved(&drop);
}

/// A permanent near-stall on a single-replica fleet: the clock scale
/// throttles throughput hard, deterministically, and the run still
/// conserves every arrival (no healthy-lane starvation panics).
#[test]
fn throttle_slows_progress_deterministically() {
    let mut cfg = base_cfg();
    cfg.gpus = vec![GpuModel::RtxA2000];
    cfg.be_jobs = vec![0];
    let slow = FaultEvent::slowdown(
        FaultKind::Stall,
        0,
        cfg.horizon_us * 0.2,
        0.05,
        f64::INFINITY,
    );
    cfg.chaos = Some(FaultPlan::new(vec![slow]));
    let throttled = run_with_clock(&cfg, RouterKind::RoundRobin, ClockKind::Serial);
    let again = run_with_clock(&cfg, RouterKind::RoundRobin, ClockKind::Serial);
    assert_eq!(throttled, again, "chaos runs must replay exactly");

    let mut happy = cfg.clone();
    happy.chaos = None;
    let base = run_with_clock(&happy, RouterKind::RoundRobin, ClockKind::Serial);
    assert!(
        throttled.requests < base.requests / 2,
        "a 20×-slowed replica must complete far fewer requests ({} vs {})",
        throttled.requests,
        base.requests
    );
    assert_eq!(throttled.faults_injected, 1);
    assert_eq!(
        throttled.faults_recovered, 0,
        "permanent fault never restores"
    );
    assert_conserved(&throttled);
}

/// With one replica permanently down and aggressive thresholds, the
/// controller sheds BE work first and then pending low-priority LS
/// requests on the overloaded survivor.
///
/// No benchmark workload runs the overload tick's legacy rule (the
/// tiered scenarios take the ladder, the rest carry no fault plan), so
/// this scenario pins its outcome exactly: any drift in the rule's
/// thresholds, actuators, shed order or victim choice shows up here.
#[test]
fn degradation_sheds_be_first_then_low_priority_ls() {
    let mut cfg = base_cfg();
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(
        0,
        cfg.horizon_us * 0.25,
        f64::INFINITY,
    )]);
    plan.degradation.shed_be_backlog = 4;
    plan.degradation.shed_ls_backlog = 12;
    plan.degradation.ls_shed_per_tick = 8;
    cfg.chaos = Some(plan);
    let res = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);
    assert!(
        res.be_shed > 0,
        "survivor overload must park BE work (be_shed = {})",
        res.be_shed
    );
    assert!(
        res.ls_shed > 0,
        "sustained overload must shed pending low-priority LS (ls_shed = {})",
        res.ls_shed
    );
    assert_conserved(&res);
    // (ls_shed, be_shed, timeout_drops, requests, slo_met) at the
    // profile's horizon (`short_horizon`), plus the fleet's summed LS
    // latency, which moves whenever a different request is shed.
    let (pinned, latency_sum_us) = if cfg!(debug_assertions) {
        ((34, 2, 0, 113, 43), 1437328.8418865325)
    } else {
        ((107, 2, 0, 319, 126), 5411773.935661066)
    };
    assert_eq!(
        (
            res.ls_shed,
            res.be_shed,
            res.timeout_drops,
            res.requests,
            res.slo_met
        ),
        pinned,
        "legacy overload rule drifted (ls_shed, be_shed, timeout_drops, requests, slo_met)"
    );
    assert_eq!(
        res.fleet_hist.sum(),
        latency_sum_us,
        "legacy overload rule drifted (fleet latency sum)"
    );
}

/// Regression (tiered-SLO PR audit): the overload tick's most-backlogged
/// shed victim must respect elastic membership — a lane that is
/// Draining or Retired is not routable and must never be the LS-shed
/// target, even when it still carries the largest flushing backlog.
/// Breach draining under a crash-driven overload makes the drained
/// lane exactly that hot lane, so a victim filter keyed on backlog
/// alone would pick it.
#[test]
fn shed_victim_skips_draining_lanes() {
    use workload::elastic::{ElasticConfig, ScalingPolicyKind, WarmPoolConfig};
    use workload::telemetry::{EventKind, TelemetryConfig};
    use workload::ScaleEventKind;

    let mut cfg = base_cfg();
    cfg.gpus = vec![GpuModel::RtxA2000, GpuModel::RtxA2000, GpuModel::Gtx1080];
    cfg.trace = TraceConfig::apollo_like().scaled(3.0).with_bursts(2.0, 0.4);
    let mut plan = FaultPlan::new(vec![FaultEvent::crash(
        0,
        cfg.horizon_us * 0.2,
        f64::INFINITY,
    )]);
    plan.degradation.shed_be_backlog = 4;
    plan.degradation.shed_ls_backlog = 8;
    plan.degradation.ls_shed_per_tick = 16;
    cfg.chaos = Some(plan);
    let mut elastic = ElasticConfig::new(WarmPoolConfig::new(vec![]), ScalingPolicyKind::Hold);
    elastic.min_replicas = 2;
    elastic.max_replicas = cfg.gpus.len();
    elastic.breach_drain_ticks = 1;
    elastic.breach_drain_ratio = 0.5;
    cfg.elastic = Some(elastic);
    cfg.telemetry = Some(TelemetryConfig::default());
    let res = run_with_clock(&cfg, RouterKind::ShortestBacklog, ClockKind::Parallel);
    let tel = res.telemetry.as_ref().expect("telemetry on");

    // Reconstruct each lane's non-member window from the scale log.
    let mut drain_start = vec![f64::INFINITY; cfg.gpus.len()];
    for ev in &res.scale_events {
        if matches!(ev.kind, ScaleEventKind::DrainStart { .. }) {
            drain_start[ev.replica] = drain_start[ev.replica].min(ev.at_us);
        }
    }
    assert!(
        drain_start.iter().any(|t| t.is_finite()),
        "scenario must actually drain a lane (got {:?})",
        res.scale_events
    );
    let mut shed_seen = 0u64;
    for e in &tel.events {
        if let EventKind::LsShed { count, .. } = e.kind {
            shed_seen += u64::from(count);
            let lane = e.lane as usize;
            assert!(
                e.at_us < drain_start[lane],
                "LS shed hit lane {lane} at {} but it started draining at {}",
                e.at_us,
                drain_start[lane]
            );
        }
    }
    assert!(shed_seen > 0, "overload must shed LS work for the audit");
    assert_conserved(&res);
}

/// An armed-but-empty fault plan is bit-identical to no plan at all:
/// the resilience machinery must cost nothing on the happy path.
#[test]
fn empty_fault_plan_matches_no_plan_exactly() {
    let mut with_plan = base_cfg();
    with_plan.chaos = Some(FaultPlan::none());
    let mut without = base_cfg();
    without.chaos = None;
    for router in RouterKind::all() {
        let a = run_with_clock(&with_plan, router, ClockKind::Parallel);
        let b = run_with_clock(&without, router, ClockKind::Parallel);
        assert_eq!(a, b, "{}: empty plan diverged from no plan", router.name());
    }
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

proptest! {
    /// The acceptance property: random fleets under random seeded fault
    /// plans — serial and parallel clocks agree bit for bit on every
    /// field, including the resilience counters and the re-dispatch
    /// sketch, for any `advance_order`.
    #[test]
    fn clocks_agree_under_any_fault_plan(
        n_replicas in 1usize..5,
        gpu_bits in 0u64..16,
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault in (0u64..1_000_000, 0.5f64..2.5),
        perm_seed in 0u64..1_000_000,
    ) {
        let (fault_seed, intensity) = fault;
        let models = [GpuModel::RtxA2000, GpuModel::Gtx1080];
        let gpus: Vec<GpuModel> = (0..n_replicas)
            .map(|r| models[((gpu_bits >> r) & 1) as usize])
            .collect();
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let mut cfg = ClusterConfig::new(gpus, system);
        cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
        cfg.trace = TraceConfig::apollo_like().scaled(scale);
        cfg.seed = seed;
        cfg.controller = ControllerConfig {
            period_us: 1.2e4,
            breach_ratio: 0.9,
            adaptive_ch_be: true,
            ..Default::default()
        };
        cfg.chaos = Some(FaultPlan::generate(
            fault_seed,
            n_replicas,
            cfg.horizon_us,
            intensity,
        ));
        cfg.advance_order = permutation(n_replicas, perm_seed);
        let serial = run_with_clock(&cfg, router, ClockKind::Serial);
        let parallel = run_with_clock(&cfg, router, ClockKind::Parallel);
        prop_assert_eq!(serial, parallel);
    }

    /// Conservation under faults: every injected arrival is exactly one
    /// of completed / timeout-dropped / shed / in-flight-at-horizon,
    /// over random fault plans, systems and retry budgets.
    #[test]
    fn arrivals_are_conserved_under_faults(
        n_replicas in 1usize..5,
        system_idx in 0usize..6,
        router_idx in 0usize..3,
        scale in 0.8f64..2.4,
        seed in 0u64..1_000_000,
        fault_seed in 0u64..1_000_000,
        intensity in 0.5f64..3.0,
        max_retries in 0u32..6,
    ) {
        let gpus = vec![GpuModel::RtxA2000; n_replicas];
        let system = SystemKind::all()[system_idx];
        let router = RouterKind::all()[router_idx];
        let mut cfg = ClusterConfig::new(gpus, system);
        cfg.horizon_us = if cfg!(debug_assertions) { 2.5e4 } else { 6e4 };
        cfg.trace = TraceConfig::apollo_like().scaled(scale);
        cfg.seed = seed;
        cfg.controller.period_us = 1.2e4;
        let mut plan = FaultPlan::generate(fault_seed, n_replicas, cfg.horizon_us, intensity);
        plan.retry.max_retries = max_retries;
        // Tight degradation thresholds so the shed paths actually run.
        plan.degradation.shed_be_backlog = 6;
        plan.degradation.shed_ls_backlog = 18;
        cfg.chaos = Some(plan);
        let res = run_with_clock(&cfg, router, ClockKind::Parallel);
        prop_assert_eq!(
            res.arrivals_injected,
            res.requests + res.timeout_drops + res.ls_shed + res.in_flight_at_end,
            "injected {} != completed {} + dropped {} + shed {} + in-flight {}",
            res.arrivals_injected,
            res.requests,
            res.timeout_drops,
            res.ls_shed,
            res.in_flight_at_end
        );
        // Resilience counters are internally consistent, too.
        prop_assert!(res.retries == res.redispatch_hist.count());
        prop_assert!(res.faults_recovered <= res.faults_injected);
    }
}
