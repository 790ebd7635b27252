//! Join-shortest-backlog routes with one packed-key scan; these
//! properties pin every choice it makes to the tuple-keyed
//! `min_by_key` it replaced, which lives on here only as the oracle.
//! The fleet clock routes every delivery through `route_with_tier`
//! (rank 0 without a tier config), so every built-in router is also
//! held to the trait's rule that rank 0 is `route`, state included.

use gpu_spec::GpuModel;
use proptest::prelude::*;
use std::fmt::Debug;
use workload::{
    JoinShortestBacklog, ReplicaView, RoundRobin, RouterKind, RoutingPolicy, SloAwarePowerOfTwo,
};

/// The tuple-keyed reference: unhealthy last, then shortest backlog,
/// ties to the lowest index.
fn oracle_route(views: &[ReplicaView]) -> usize {
    views
        .iter()
        .enumerate()
        .min_by_key(|(i, v)| (!v.healthy, v.backlog, *i))
        .expect("non-empty fleet")
        .0
}

/// The tuple-keyed tier reference: below rank 0, breaching lanes sort
/// ahead of clean ones among equally healthy lanes.
fn oracle_route_with_tier(views: &[ReplicaView], tier_rank: u32) -> usize {
    if tier_rank == 0 {
        return oracle_route(views);
    }
    views
        .iter()
        .enumerate()
        .min_by_key(|(i, v)| (!v.healthy, v.window_p99_ratio <= 1.0, v.backlog, *i))
        .expect("non-empty fleet")
        .0
}

/// Backlog values: mostly a handful of small values (heavy ties), plus
/// both ends of `usize` and arbitrary values.
fn backlog_of(kind: u8, small: usize, any: usize) -> usize {
    match kind {
        0 => 0,
        1 => usize::MAX,
        2 => usize::MAX - 1,
        3 => any,
        _ => small,
    }
}

/// `saturated` puts every healthy lane's backlog within a few of
/// `usize::MAX`, so a key that let backlog bits spill into the health
/// bit would prefer an idle unhealthy lane.
fn views_of(
    elems: &[(u32, u8, usize, usize, f64)],
    unhealthy_pct: u32,
    saturated: bool,
) -> Vec<ReplicaView> {
    elems
        .iter()
        .enumerate()
        .map(|(i, &(health, kind, small, any, ratio))| {
            let healthy = health >= unhealthy_pct;
            ReplicaView {
                gpu: if i % 2 == 0 {
                    GpuModel::RtxA2000
                } else {
                    GpuModel::Gtx1080
                },
                backlog: if saturated && healthy {
                    usize::MAX - small
                } else {
                    backlog_of(kind, small, any)
                },
                window_p99_ratio: ratio,
                resident_be: i % 3,
                healthy,
            }
        })
        .collect()
}

fn ratios() -> Vec<f64> {
    vec![
        0.0,
        0.5,
        1.0,
        1.0 + f64::EPSILON,
        1.0 - f64::EPSILON / 2.0,
        2.5,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ]
}

proptest! {
    /// Both methods choose exactly the oracle's replica on fleets of 1 to
    /// 600 views, whatever the health mix, ties, backlog extremes and
    /// ratio edge cases (NaN counts as not within the SLO, like `<=`);
    /// rank 0 of the tier-aware route is the tier-blind route.
    #[test]
    fn shortest_backlog_matches_tuple_oracle(
        elems in prop::collection::vec(
            (0u32..100, 0u8..12, 0usize..4, 0usize..usize::MAX, prop::sample::select(ratios())),
            1..601,
        ),
        unhealthy_pct in prop::sample::select(vec![0u32, 5, 50, 95, 100]),
        saturated in prop::sample::select(vec![false, true]),
        tier_rank in 0u32..4,
    ) {
        let views = views_of(&elems, unhealthy_pct, saturated);
        let mut router = JoinShortestBacklog;
        prop_assert_eq!(router.route(&views, 0, 0.0), oracle_route(&views));
        prop_assert_eq!(
            router.route_with_tier(&views, 0, tier_rank, 0.0),
            oracle_route_with_tier(&views, tier_rank)
        );
        prop_assert_eq!(router.route_with_tier(&views, 0, 0, 0.0), router.route(&views, 0, 0.0));
    }
}

/// Feeds one sequence of views to two same-seeded routers, one through
/// `route` and one through `route_with_tier` at rank 0: every pick and
/// every internal state (p2c chain, round-robin cursor) must agree.
fn assert_rank0_is_route<R: RoutingPolicy + Debug>(
    mut blind: R,
    mut ranked: R,
    steps: &[Vec<ReplicaView>],
) {
    for (i, views) in steps.iter().enumerate() {
        let (task, at_us) = (i % 3, i as f64 * 10.0);
        prop_assert_eq!(
            blind.route(views, task, at_us),
            ranked.route_with_tier(views, task, 0, at_us),
            "{} diverged at call {}",
            blind.name(),
            i
        );
        prop_assert_eq!(format!("{blind:?}"), format!("{ranked:?}"));
    }
}

proptest! {
    /// Rank 0 of the tier-aware route is the tier-blind route for every
    /// built-in router, call for call over a shared view sequence whose
    /// fleet size, health and load change between calls.
    #[test]
    fn rank_zero_is_route_for_every_router(
        steps in prop::collection::vec(
            (
                prop::collection::vec(
                    (0u32..100, 0u8..12, 0usize..4, 0usize..usize::MAX, prop::sample::select(ratios())),
                    1..40,
                ),
                prop::sample::select(vec![0u32, 5, 50, 95, 100]),
            ),
            1..30,
        ),
        seed in 0u64..u64::MAX,
    ) {
        let steps: Vec<Vec<ReplicaView>> = steps
            .iter()
            .map(|(elems, unhealthy_pct)| views_of(elems, *unhealthy_pct, false))
            .collect();
        for kind in RouterKind::all() {
            match kind {
                RouterKind::RoundRobin => {
                    assert_rank0_is_route(RoundRobin::default(), RoundRobin::default(), &steps)
                }
                RouterKind::ShortestBacklog => {
                    assert_rank0_is_route(JoinShortestBacklog, JoinShortestBacklog, &steps)
                }
                RouterKind::P2cSlo => assert_rank0_is_route(
                    SloAwarePowerOfTwo::new(seed),
                    SloAwarePowerOfTwo::new(seed),
                    &steps,
                ),
            }
            // The boxed policies the fleet clock actually holds.
            let (mut blind, mut ranked) = (kind.make(seed), kind.make(seed));
            for (i, views) in steps.iter().enumerate() {
                prop_assert_eq!(
                    blind.route(views, 0, i as f64),
                    ranked.route_with_tier(views, 0, 0, i as f64)
                );
            }
        }
    }
}

#[test]
#[should_panic(expected = "non-empty fleet")]
fn route_panics_on_empty_views() {
    JoinShortestBacklog.route(&[], 0, 0.0);
}

#[test]
#[should_panic(expected = "non-empty fleet")]
fn route_with_tier_panics_on_empty_views() {
    JoinShortestBacklog.route_with_tier(&[], 0, 1, 0.0);
}
