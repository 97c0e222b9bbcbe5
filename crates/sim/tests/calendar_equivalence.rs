//! Differential property tests: the hybrid wheel [`Calendar`] must be
//! observationally identical to the original heap [`BaselineCalendar`] —
//! same pop order (including same-cycle FIFO ties), same `now`, same
//! `len`/`peek_time` at every step, across `clear` and reuse. The
//! baseline is the executable specification of the `(time, seq)`
//! contract; the simulator's bit-reproducibility rests on this
//! equivalence (DESIGN.md "Host performance"). The run loop pops
//! through [`Calendar::pop_at_most`], so it is checked here against the
//! `peek_time`-then-`pop` pair it replaces. Slots crowded with mixed
//! keys are checked on their own, since every wheel slot is a key-sorted
//! list that pushes insert into.

use eclipse_sim::calendar::WHEEL_SLOTS;
use eclipse_sim::{BaselineCalendar, Calendar};
use proptest::prelude::*;

/// One operation applied to both calendars in lock-step.
#[derive(Debug, Clone)]
enum Op {
    /// Schedule at `now + delay` (delay chosen to land in the wheel, at
    /// the window edge, or in the far heap).
    Schedule(u64),
    /// Schedule `count` events at the same `now + delay` — FIFO ties.
    ScheduleBurst(u64, u8),
    /// Pop one event.
    Pop,
    /// Drop all pending events, keep `now`.
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let w = WHEEL_SLOTS as u64;
    // The vendored proptest shim's `prop_oneof!` is uniform; repeated arms
    // weight the mix toward the simulator's dominant schedule/pop pattern.
    prop_oneof![
        // Dense short delays (the simulator's dominant pattern).
        (0u64..64).prop_map(Op::Schedule),
        (0u64..64).prop_map(Op::Schedule),
        (0u64..4096).prop_map(Op::Schedule),
        // Around the wheel/heap boundary.
        (w - 2..w + 2).prop_map(Op::Schedule),
        // Far future.
        (w..w * 4).prop_map(Op::Schedule),
        // Same-cycle bursts exercise the FIFO tie-break.
        ((0u64..32), (2u8..6)).prop_map(|(d, n)| Op::ScheduleBurst(d, n)),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Pop),
        Just(Op::Clear),
    ]
}

/// A crowded-slot operation: `Burst(delay, count, seed)` schedules `count`
/// events at `now + delay` with keys drawn from a handful of values by
/// `seed`, so one slot holds many interleaved keys; `Pop` takes the
/// earliest, which is often in the middle of what the slot was pushed.
#[derive(Debug, Clone)]
enum Crowd {
    Burst(u64, u8, u64),
    Pop,
}

fn crowd_strategy() -> impl Strategy<Value = Crowd> {
    prop_oneof![
        ((0u64..3), (1u8..12), (1u64..u64::MAX)).prop_map(|(d, n, s)| Crowd::Burst(d, n, s)),
        ((0u64..3), (1u8..4), (1u64..u64::MAX)).prop_map(|(d, n, s)| Crowd::Burst(d, n, s)),
        Just(Crowd::Pop),
        Just(Crowd::Pop),
        Just(Crowd::Pop),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn wheel_and_heap_calendars_are_observationally_identical(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        let mut id = 0u32;
        for op in &ops {
            match *op {
                Op::Schedule(delay) => {
                    wheel.schedule(delay, id);
                    heap.schedule(delay, id);
                    id += 1;
                }
                Op::ScheduleBurst(delay, count) => {
                    for _ in 0..count {
                        wheel.schedule(delay, id);
                        heap.schedule(delay, id);
                        id += 1;
                    }
                }
                Op::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now());
                }
                Op::Clear => {
                    wheel.clear();
                    heap.clear();
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.is_empty(), heap.is_empty());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain both completely: the tails must match event for event,
        // and reuse after the drain must still agree.
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
        wheel.schedule(7, id);
        heap.schedule(7, id);
        prop_assert_eq!(wheel.pop(), heap.pop());
    }

    /// Absolute-time scheduling at far-apart timestamps: marches the
    /// window across many wrap-arounds.
    #[test]
    fn absolute_schedules_across_windows_match(
        strides in proptest::collection::vec(1u64..WHEEL_SLOTS as u64 * 2, 1..64),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        let mut t = 0u64;
        for (i, &stride) in strides.iter().enumerate() {
            t += stride;
            wheel.schedule_at(t, i as u32);
            heap.schedule_at(t, i as u32);
            // Interleave pops so `now` advances and the wheel window slides.
            if i % 2 == 1 {
                prop_assert_eq!(wheel.pop(), heap.pop());
            }
        }
        loop {
            let (a, b) = (wheel.pop(), heap.pop());
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// `pop_at_most(limit)` is `peek_time() <= limit ? pop() : leave`,
    /// under keyed schedules with `(time, key)` ties, far-heap events and
    /// random limits; the events it pops, in order, are the baseline's.
    #[test]
    fn pop_at_most_is_peek_then_pop(
        ops in proptest::collection::vec(
            prop_oneof![
                ((0u64..64), (0u64..3)).prop_map(|(d, k)| Some((d, k))),
                ((0u64..8), (0u64..3)).prop_map(|(d, k)| Some((d, k))),
                ((WHEEL_SLOTS as u64 - 2..WHEEL_SLOTS as u64 * 3), (0u64..3))
                    .prop_map(|(d, k)| Some((d, k))),
                Just(None),
                Just(None),
            ],
            1..400,
        ),
        limits in proptest::collection::vec(0u64..WHEEL_SLOTS as u64 * 2, 400..401),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        let mut id = 0u32;
        for (op, &ahead) in ops.iter().zip(&limits) {
            match *op {
                Some((delay, key)) => {
                    let t = wheel.now() + delay;
                    wheel.schedule_keyed_at(t, key, id);
                    heap.schedule_keyed_at(t, key, id);
                    id += 1;
                }
                None => {
                    // Limits straddle the next event: before it, on it,
                    // and past it.
                    let limit = wheel.now() + ahead;
                    let peeked = wheel.peek_time();
                    let (len, now) = (wheel.len(), wheel.now());
                    match wheel.pop_at_most(limit) {
                        Ok(got) => {
                            prop_assert!(peeked.is_some_and(|t| t <= limit));
                            prop_assert_eq!(Some(got), heap.pop());
                            prop_assert_eq!(wheel.now(), got.0);
                        }
                        Err(next) => {
                            prop_assert_eq!(next, peeked);
                            prop_assert!(next.is_none_or(|t| t > limit));
                            prop_assert_eq!((wheel.len(), wheel.now()), (len, now));
                        }
                    }
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // Drain through the bounded pop with an unreachable limit: the
        // tails match the baseline event for event.
        loop {
            match wheel.pop_at_most(u64::MAX) {
                Ok(got) => prop_assert_eq!(Some(got), heap.pop()),
                Err(next) => {
                    prop_assert_eq!(next, None);
                    prop_assert!(heap.is_empty());
                    break;
                }
            }
        }
    }

    /// Many mixed-key events in one slot, pops from the middle of what a
    /// slot was pushed, and pushes into the same slot again, starting just
    /// before the wheel wraps so slots are reused across windows: the
    /// keyed pop order is the baseline's throughout.
    #[test]
    fn crowded_slots_with_mixed_keys_match(
        start in prop_oneof![
            WHEEL_SLOTS as u64 - 6..WHEEL_SLOTS as u64 + 2,
            3 * WHEEL_SLOTS as u64 - 6..3 * WHEEL_SLOTS as u64 + 2,
            0u64..64,
        ],
        ops in proptest::collection::vec(crowd_strategy(), 1..300),
    ) {
        let mut wheel: Calendar<u32> = Calendar::new();
        let mut heap: BaselineCalendar<u32> = BaselineCalendar::new();
        // Advance both to `start`, next to a window edge.
        wheel.schedule_at(start, u32::MAX);
        heap.schedule_at(start, u32::MAX);
        prop_assert_eq!(wheel.pop(), heap.pop());
        let mut id = 0u32;
        for op in &ops {
            match *op {
                Crowd::Burst(delay, count, mut x) => {
                    let t = wheel.now() + delay;
                    for _ in 0..count {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let key = (x >> 40) % 5;
                        wheel.schedule_keyed_at(t, key, id);
                        heap.schedule_keyed_at(t, key, id);
                        id += 1;
                    }
                }
                Crowd::Pop => {
                    prop_assert_eq!(wheel.pop(), heap.pop());
                    prop_assert_eq!(wheel.now(), heap.now());
                }
            }
            prop_assert_eq!(wheel.len(), heap.len());
            prop_assert_eq!(wheel.peek_time(), heap.peek_time());
        }
        // The checkpoint view agrees with the order the pops then take.
        let pending = wheel.pending_in_order();
        let mut drained = Vec::new();
        while let Some(got) = wheel.pop() {
            prop_assert_eq!(Some(got), heap.pop());
            drained.push(got);
        }
        prop_assert!(heap.is_empty());
        prop_assert_eq!(pending, drained);
    }
}
