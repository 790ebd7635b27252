//! Calendar-queue contracts: [`EventCalendar`] must agree with two
//! independent oracles — a linear scan over the live key table and a
//! `BinaryHeap` priority queue — on every busy set it emits, for random
//! interleavings of insert, rekey, remove and clock advances, with the
//! tie-break (ascending lane index) identical to the order the fleet
//! clock's linear-scan reference produces.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use workload::EventCalendar;

/// Linear-scan oracle: every stored lane whose key is due at `t`,
/// ascending by lane index (exactly the fleet clock's retained oracle).
fn scan_due(keys: &[f64], t: f64, strict: bool) -> Vec<u32> {
    keys.iter()
        .enumerate()
        .filter(|&(_, &k)| k.is_finite() && if strict { k < t } else { k <= t })
        .map(|(l, _)| l as u32)
        .collect()
}

/// BinaryHeap oracle: rebuild a min-heap over the live keys and pop
/// everything due. Non-negative finite f64 keys order correctly through
/// their bit patterns, so `(bits, lane)` gives key order with
/// lane-index tie-break — the canonical emission order.
fn heap_due(keys: &[f64], t: f64, strict: bool) -> Vec<u32> {
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = keys
        .iter()
        .enumerate()
        .filter(|&(_, &k)| k.is_finite())
        .map(|(l, &k)| Reverse((k.to_bits(), l as u32)))
        .collect();
    let mut out = Vec::new();
    while let Some(&Reverse((bits, lane))) = heap.peek() {
        let k = f64::from_bits(bits);
        if if strict { k < t } else { k <= t } {
            out.push(lane);
            heap.pop();
        } else {
            break;
        }
    }
    // Key order with lane tie-break → lane order, for the comparison.
    out.sort_unstable();
    out
}

proptest! {
    /// Random op sequences over fleets of up to 48 lanes, with bucket
    /// widths and slot counts drawn adversarially small so the ring
    /// wraps many times: every collected busy set equals both oracles,
    /// and the stored count tracks the live key table.
    ///
    /// Each sampled op tuple decodes by its `kind` field: 0–3 set a
    /// lane's key at now + offset (negative offsets probe the
    /// behind-the-cursor clamp), 4 removes a lane, 5–6 advance the
    /// clock and collect.
    #[test]
    fn calendar_matches_linear_scan_and_heap_oracles(
        n_lanes in 1usize..48,
        width in 0.5f64..30.0,
        n_slots in 1usize..24,
        ops in prop::collection::vec(
            (0u8..7, 0usize..48, -40.0f64..400.0, 0.0f64..120.0, 0u8..2),
            1..120,
        ),
    ) {
        let mut cal = EventCalendar::new();
        cal.reset(n_lanes, width, n_slots);
        // The live key table both oracles read: INFINITY = absent.
        let mut keys = vec![f64::INFINITY; n_lanes];
        let mut now = 0.0f64;
        let mut busy = Vec::new();
        for &(kind, lane, offset, dt, strict) in &ops {
            let lane = lane % n_lanes;
            match kind {
                0..=3 => {
                    let key = (now + offset).max(0.0);
                    cal.set(lane as u32, key);
                    keys[lane] = key;
                }
                4 => {
                    cal.remove(lane as u32);
                    keys[lane] = f64::INFINITY;
                }
                _ => {
                    let strict = strict == 1;
                    now += dt;
                    busy.clear();
                    cal.collect_due(now, strict, &mut busy);
                    let scan = scan_due(&keys, now, strict);
                    let heap = heap_due(&keys, now, strict);
                    prop_assert_eq!(&scan, &heap, "the two oracles disagree");
                    prop_assert_eq!(&busy, &scan,
                        "calendar busy set diverged at t={} strict={}", now, strict);
                    // Collection consumes: clear the emitted lanes.
                    for &l in &busy {
                        keys[l as usize] = f64::INFINITY;
                    }
                }
            }
            prop_assert_eq!(
                cal.len(),
                keys.iter().filter(|k| k.is_finite()).count(),
                "stored count diverged from the live key table"
            );
        }
        // Final drain (the fleet clock's horizon form: inclusive).
        busy.clear();
        cal.collect_due(now, false, &mut busy);
        prop_assert_eq!(&busy, &scan_due(&keys, now, false));
    }
}

/// Equal keys emit in ascending lane order — the tie-break the calendar
/// clock's epoch loop and the serial reference both use, so per-epoch
/// dispatch order is stable across the two selection paths.
#[test]
fn equal_keys_emit_in_lane_index_order() {
    let mut cal = EventCalendar::new();
    cal.reset(16, 5.0, 8);
    // Insert in descending lane order so the emission order cannot be
    // an accident of insertion.
    for lane in (0..16u32).rev() {
        cal.set(lane, 7.5);
    }
    let mut busy = Vec::new();
    cal.collect_due(10.0, true, &mut busy);
    assert_eq!(busy, (0..16).collect::<Vec<u32>>());
}

/// Re-keying a lane repeatedly (the fleet refresh path: every mutation
/// re-derives `next_pending_at`) never duplicates it in a busy set.
#[test]
fn rekeyed_lane_is_emitted_exactly_once() {
    let mut cal = EventCalendar::new();
    cal.reset(4, 2.0, 4);
    for step in 0..40 {
        cal.set(1, 3.0 + (step as f64) * 0.25);
    }
    cal.set(1, 9.0);
    let mut busy = Vec::new();
    cal.collect_due(50.0, true, &mut busy);
    assert_eq!(busy, vec![1]);
}
