//! Property-based tests for the serving layer's pure policy arithmetic.
//!
//! Two decision functions gate every request's path through a lane, and
//! both are deliberately pure so they can be pinned here without threads:
//!
//! * [`admit`] — the submit-time admission table every lane push applies.
//!   The properties that make refusal *safe* are monotonicity (adding
//!   queue depth, shrinking a delay budget or raising the flush estimate
//!   never turns a refusal back into an accept — otherwise shedding would
//!   oscillate under load) and the seeding exemption (the request a lane's
//!   warm-up plan is built from is never shed, or a cold shape could
//!   starve itself forever).
//! * [`flush_decision`] — the dispatcher's wait-loop timer. The property
//!   that makes deadline batching *correct* is that the timer follows the
//!   **earliest** pending deadline whatever order requests arrived in:
//!   the decision is a pure function of the deadline *multiset*, `Flush`
//!   fires exactly when that minimum has passed, and `WaitUntil` targets
//!   exactly that minimum (never a later deadline, which would let the
//!   earliest request miss).

use bppsa_serve::{
    admit, flush_decision, AdmitDecision, AdmitRequest, FeasibilityPolicy, FlushCause,
    FlushDecision, LaneView, ShedPolicy, SubmitRefusal,
};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// An arbitrary shed policy: each threshold independently absent or set.
fn shed_policy() -> impl Strategy<Value = ShedPolicy> {
    (
        any::<bool>(),
        1..64usize,
        any::<bool>(),
        0..200_000u64,
        any::<bool>(),
        0..16u64,
    )
        .prop_map(
            |(arm_depth, depth, arm_delay, min_us, arm_feasibility, min_flushes)| ShedPolicy {
                max_queue_depth: arm_depth.then_some(depth),
                min_warming_delay: arm_delay.then(|| Duration::from_micros(min_us)),
                feasibility: arm_feasibility.then_some(FeasibilityPolicy { min_flushes }),
            },
        )
}

/// An arbitrary lane view; the estimate is absent (below the cold-start
/// gate) or any latency up to 50 ms.
fn lane_view() -> impl Strategy<Value = LaneView> {
    (
        0..96usize,
        1..64usize,
        1..16usize,
        any::<bool>(),
        any::<bool>(),
        0..50_000u64,
    )
        .prop_map(
            |(queue_depth, queue_cap, max_batch, warming, timed, estimate_us)| LaneView {
                queue_depth,
                queue_cap,
                max_batch,
                warming,
                flush_estimate: timed.then(|| Duration::from_micros(estimate_us)),
            },
        )
}

fn admit_request() -> impl Strategy<Value = AdmitRequest> {
    (0..300_000u64, any::<bool>(), any::<bool>()).prop_map(|(delay_us, block, created_lane)| {
        AdmitRequest {
            delay: Duration::from_micros(delay_us),
            block,
            created_lane,
        }
    })
}

fn is_refusal(decision: AdmitDecision) -> bool {
    matches!(decision, AdmitDecision::Refuse(_))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // More queued work never un-refuses: a request refused at depth `d`
    // is still refused at every depth above `d`.
    #[test]
    fn shed_depth_is_monotone(
        policy in shed_policy(),
        lane in lane_view(),
        request in admit_request(),
        extra in 0..96usize,
    ) {
        if is_refusal(admit(&policy, lane, request)) {
            let deeper = LaneView { queue_depth: lane.queue_depth + extra, ..lane };
            prop_assert!(
                is_refusal(admit(&policy, deeper, request)),
                "refused at depth {} but not at deeper {}",
                lane.queue_depth,
                deeper.queue_depth
            );
        }
    }

    // A tighter budget never un-refuses: a request refused with delay
    // budget `b` is still refused with every shorter budget.
    #[test]
    fn shed_warming_delay_is_anti_monotone(
        policy in shed_policy(),
        lane in lane_view(),
        request in admit_request(),
        cut_us in 0..300_000u64,
    ) {
        if is_refusal(admit(&policy, lane, request)) {
            let shorter = AdmitRequest {
                delay: request.delay.saturating_sub(Duration::from_micros(cut_us)),
                ..request
            };
            prop_assert!(
                is_refusal(admit(&policy, lane, shorter)),
                "refused at {:?} but not at the shorter budget {:?}",
                request.delay,
                shorter.delay
            );
        }
    }

    // All three loads at once: more depth, a shorter budget and a larger
    // (or newly available) flush estimate never turn a refusal into an
    // enqueue.
    #[test]
    fn full_decision_is_monotone_under_load(
        policy in shed_policy(),
        lane in lane_view(),
        request in admit_request(),
        extra in 0..96usize,
        cut_us in 0..300_000u64,
        slower_us in 0..50_000u64,
    ) {
        let slower = Duration::from_micros(slower_us);
        let worse_lane = LaneView {
            queue_depth: lane.queue_depth + extra,
            flush_estimate: Some(lane.flush_estimate.unwrap_or(Duration::ZERO) + slower),
            ..lane
        };
        let worse_request = AdmitRequest {
            delay: request.delay.saturating_sub(Duration::from_micros(cut_us)),
            ..request
        };
        if is_refusal(admit(&policy, lane, request)) {
            let worse = admit(&policy, worse_lane, worse_request);
            prop_assert!(
                worse != AdmitDecision::Enqueue,
                "refused {:?} / {:?} but enqueued the strictly worse {:?} / {:?}",
                lane,
                request,
                worse_lane,
                worse_request
            );
        }
    }

    // The request that seeds a lane's warm-up — its creator, or the first
    // request into an empty warming lane — is never shed, refused as
    // warming, or refused as infeasible, whatever the policy: it *is* the
    // template the plan gets built from, so refusing it would starve the
    // shape. Only a full queue can turn it away.
    #[test]
    fn seeding_requests_are_never_shed(
        policy in shed_policy(),
        lane in lane_view(),
        request in admit_request(),
        creator in any::<bool>(),
    ) {
        // Every case seeds: either the lane's creator at an arbitrary
        // lane, or an arbitrary request into an empty warming lane.
        let (lane, request) = if creator {
            (lane, AdmitRequest { created_lane: true, ..request })
        } else {
            (LaneView { queue_depth: 0, warming: true, ..lane }, request)
        };
        let decision = admit(&policy, lane, request);
        prop_assert!(
            !matches!(
                decision,
                AdmitDecision::Refuse(
                    SubmitRefusal::Shed | SubmitRefusal::LaneWarming | SubmitRefusal::Infeasible
                )
            ),
            "a lane-seeding request got {:?} under {:?}",
            decision,
            policy
        );
    }

    // A disabled policy sheds nothing: it queues, parks, pushes back on a
    // full queue, or refuses a non-blocking caller at a warming lane.
    #[test]
    fn disabled_policy_only_queues_parks_or_pushes_back(
        lane in lane_view(),
        request in admit_request(),
    ) {
        let decision = admit(&ShedPolicy::disabled(), lane, request);
        prop_assert!(
            matches!(
                decision,
                AdmitDecision::Enqueue
                    | AdmitDecision::Park
                    | AdmitDecision::Refuse(SubmitRefusal::Backpressure | SubmitRefusal::LaneWarming)
            ),
            "disabled policy decided {:?}",
            decision
        );
    }

    // A blocking request parks instead of refusing for room or warm-up:
    // `BppsaService::submit_with_delay` relies on never seeing
    // `Backpressure` or `LaneWarming`.
    #[test]
    fn blocking_requests_never_see_backpressure_or_warming(
        policy in shed_policy(),
        lane in lane_view(),
        request in admit_request(),
    ) {
        let blocking = AdmitRequest { block: true, ..request };
        let decision = admit(&policy, lane, blocking);
        prop_assert!(
            !matches!(
                decision,
                AdmitDecision::Refuse(SubmitRefusal::Backpressure | SubmitRefusal::LaneWarming)
            ),
            "blocking request got {:?}",
            decision
        );
    }
}

/// One hand-written row per step of [`admit`]'s table, in table order.
#[test]
fn admit_table_rows() {
    let ms = Duration::from_millis;
    let armed = ShedPolicy {
        max_queue_depth: Some(4),
        min_warming_delay: Some(ms(5)),
        feasibility: Some(FeasibilityPolicy { min_flushes: 1 }),
    };
    let live = LaneView {
        queue_depth: 2,
        queue_cap: 8,
        max_batch: 2,
        warming: false,
        flush_estimate: Some(ms(10)),
    };
    let warming = LaneView {
        warming: true,
        flush_estimate: None,
        ..live
    };
    let blocking = AdmitRequest {
        delay: ms(100),
        block: true,
        created_lane: false,
    };
    let non_blocking = AdmitRequest {
        block: false,
        ..blocking
    };
    let refuse = AdmitDecision::Refuse;
    let rows = [
        // 1. Seeding skips 2–5: the creator at a deep lane with a hopeless
        //    budget, and the first request into an empty warming lane.
        (
            "creator skips shedding",
            admit(
                &armed,
                LaneView {
                    queue_depth: 6,
                    ..live
                },
                AdmitRequest {
                    delay: ms(0),
                    created_lane: true,
                    ..non_blocking
                },
            ),
            AdmitDecision::Enqueue,
        ),
        (
            "first request seeds an empty warming lane",
            admit(
                &armed,
                LaneView {
                    queue_depth: 0,
                    ..warming
                },
                non_blocking,
            ),
            AdmitDecision::Enqueue,
        ),
        // 2. Depth at the threshold sheds, before any other check.
        (
            "depth threshold",
            admit(
                &armed,
                LaneView {
                    queue_depth: 4,
                    ..warming
                },
                non_blocking,
            ),
            refuse(SubmitRefusal::Shed),
        ),
        // 3. A warming lane refuses non-blocking callers.
        (
            "warming, non-blocking",
            admit(&armed, warming, non_blocking),
            refuse(SubmitRefusal::LaneWarming),
        ),
        // 4. A warming lane sheds blocking callers below the warm-up budget.
        (
            "warming, blocking, short budget",
            admit(
                &armed,
                warming,
                AdmitRequest {
                    delay: ms(4),
                    ..blocking
                },
            ),
            refuse(SubmitRefusal::Shed),
        ),
        // 5. Two queued at width 2 with a 10 ms estimate: 10 ms predicted,
        //    so 9 ms is infeasible (and exactly 10 ms is still feasible).
        (
            "predicted wait over budget",
            admit(
                &armed,
                live,
                AdmitRequest {
                    delay: ms(9),
                    ..blocking
                },
            ),
            refuse(SubmitRefusal::Infeasible),
        ),
        (
            "predicted wait equal to budget",
            admit(
                &armed,
                live,
                AdmitRequest {
                    delay: ms(10),
                    ..blocking
                },
            ),
            AdmitDecision::Enqueue,
        ),
        // 6. Room enqueues; a full queue parks blocking callers and pushes
        //    back on non-blocking ones.
        (
            "room",
            admit(&ShedPolicy::disabled(), live, non_blocking),
            AdmitDecision::Enqueue,
        ),
        (
            "full, blocking",
            admit(
                &ShedPolicy::disabled(),
                LaneView {
                    queue_depth: 8,
                    ..live
                },
                blocking,
            ),
            AdmitDecision::Park,
        ),
        (
            "full, non-blocking",
            admit(
                &ShedPolicy::disabled(),
                LaneView {
                    queue_depth: 8,
                    ..live
                },
                non_blocking,
            ),
            refuse(SubmitRefusal::Backpressure),
        ),
    ];
    for (row, got, want) in rows {
        assert_eq!(got, want, "row `{row}`");
    }
}

/// Pending-request deadlines as offsets (in microseconds) around `now`:
/// negative offsets are already expired, positive ones are still in the
/// future. Offsets are deliberately allowed to collide (equal deadlines).
fn deadline_offsets() -> impl Strategy<Value = Vec<i64>> {
    proptest::collection::vec(-50_000..50_000i64, 0..24)
}

fn materialize(base: Instant, offsets: &[i64]) -> Vec<Instant> {
    offsets
        .iter()
        .map(|&us| {
            if us >= 0 {
                base + Duration::from_micros(us as u64)
            } else {
                base - Duration::from_micros(us.unsigned_abs())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The flush timer follows the earliest pending deadline under
    // arbitrary arrival orderings. Against the pending set's *sorted*
    // model this pins, for every case the dispatcher can see:
    //
    // * `max_batch` reached → `Flush(MaxBatch)` regardless of deadlines;
    // * empty queue → `Park` while open, `Retire` once closed;
    // * non-empty closed queue → `Flush(Drain)` (shutdown never waits);
    // * otherwise the earliest deadline decides: passed → it flushes
    //   `Flush(Deadline)` *now*; still ahead → `WaitUntil` exactly that
    //   minimum, never a later deadline.
    #[test]
    fn flush_decision_follows_earliest_deadline(
        offsets in deadline_offsets(),
        open in any::<bool>(),
        max_batch in 1..12usize,
    ) {
        let now = Instant::now();
        let deadlines = materialize(now, &offsets);
        let decision = flush_decision(deadlines.iter().copied(), open, max_batch, now);

        let earliest = deadlines.iter().copied().min();
        let expect = if deadlines.len() >= max_batch {
            FlushDecision::Flush(FlushCause::MaxBatch)
        } else {
            match earliest {
                None if open => FlushDecision::Park,
                None => FlushDecision::Retire,
                Some(_) if !open => FlushDecision::Flush(FlushCause::Drain),
                Some(e) if now >= e => FlushDecision::Flush(FlushCause::Deadline),
                Some(e) => FlushDecision::WaitUntil(e),
            }
        };
        prop_assert_eq!(decision, expect, "against the sorted model");

        if let FlushDecision::WaitUntil(target) = decision {
            let e = earliest.expect("WaitUntil implies a pending request");
            prop_assert_eq!(target, e, "timer must target the minimum deadline");
            prop_assert!(target > now, "WaitUntil in the past would stall a due flush");
        }
    }

    // Arrival order is irrelevant: any permutation of the pending set
    // (here: reversal and a deterministic rotation, two permutations that
    // move every element for length > 1) produces the identical decision.
    #[test]
    fn flush_decision_is_order_invariant(
        offsets in deadline_offsets(),
        open in any::<bool>(),
        max_batch in 1..12usize,
        rot in 0..24usize,
    ) {
        let now = Instant::now();
        let deadlines = materialize(now, &offsets);
        let baseline = flush_decision(deadlines.iter().copied(), open, max_batch, now);

        let reversed = flush_decision(deadlines.iter().rev().copied(), open, max_batch, now);
        prop_assert_eq!(reversed, baseline, "reversal changed the decision");

        if !deadlines.is_empty() {
            let k = rot % deadlines.len();
            let rotated = deadlines[k..].iter().chain(&deadlines[..k]).copied();
            prop_assert_eq!(
                flush_decision(rotated, open, max_batch, now),
                baseline,
                "rotation by {} changed the decision",
                k
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Overload-policy arithmetic: the EWMA flush estimator, the feasibility
// predicate it feeds, and the brownout hysteresis machine. All pure, so the
// properties that make overload shedding safe pin down here without threads:
// the estimator always lands between its inputs (no overshoot that could
// shed a healthy lane), the predicate is monotone in queue depth and
// anti-monotone in the delay budget (no oscillation under load), a cold
// estimator never sheds anything, and the brownout level moves at most one
// step per poll inside its fixed range (no cliff-edge degradation).
// ---------------------------------------------------------------------------

use bppsa_serve::{
    ewma_update, predicted_wait, BrownoutLevel, BrownoutPolicy, BrownoutSignal, BrownoutState,
};

fn feasibility() -> impl Strategy<Value = FeasibilityPolicy> {
    (0..32u64).prop_map(|min_flushes| FeasibilityPolicy { min_flushes })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // The estimator is a convex combination: the update always lands in
    // the closed interval between the previous estimate and the sample.
    // (With the cold-start adoption rule, prev == 0 jumps straight to the
    // sample — also inside the interval.)
    #[test]
    fn ewma_stays_between_previous_and_sample(
        prev in 0..u64::MAX / 2,
        sample in 0..u64::MAX / 2,
    ) {
        let next = ewma_update(prev, sample);
        let (lo, hi) = (prev.min(sample), prev.max(sample));
        if prev == 0 {
            prop_assert_eq!(next, sample, "cold estimator adopts the first sample");
        } else {
            prop_assert!(next >= lo && next <= hi, "{} outside [{}, {}]", next, lo, hi);
        }
    }

    // Folding the same sample twice in either interleaving with another
    // produces the same *decision inputs* the predicate sees: the
    // predicate itself is a pure function of (queued, max_batch,
    // estimate, deadline) — same inputs, same answer, every time.
    #[test]
    fn feasibility_predicate_is_pure(
        policy in feasibility(),
        queued in 0..256usize,
        max_batch in 1..32usize,
        ewma_us in 0..1_000_000u64,
        deadline_us in 0..1_000_000u64,
    ) {
        let estimate = Some(Duration::from_micros(ewma_us));
        let deadline = Duration::from_micros(deadline_us);
        let first = policy.sheds(queued, max_batch, estimate, deadline);
        for _ in 0..4 {
            prop_assert_eq!(first, policy.sheds(queued, max_batch, estimate, deadline));
        }
        // And the decision matches the arithmetic it claims to apply:
        // refuse exactly when the predicted wait strictly exceeds the
        // budget (a wait equal to the budget is still feasible).
        let wait = predicted_wait(queued, max_batch, Duration::from_micros(ewma_us));
        prop_assert_eq!(first, wait > deadline);
    }

    // Deeper queues never un-shed, and a *longer* delay budget never
    // turns an accept into a refusal — the monotonicities that stop
    // feasibility shedding from oscillating under steady load.
    #[test]
    fn feasibility_is_monotone_in_depth_and_anti_monotone_in_budget(
        policy in feasibility(),
        queued in 0..128usize,
        extra in 0..128usize,
        max_batch in 1..32usize,
        ewma_us in 1..500_000u64,
        deadline_us in 0..1_000_000u64,
        slack_us in 0..1_000_000u64,
    ) {
        let estimate = Some(Duration::from_micros(ewma_us));
        let deadline = Duration::from_micros(deadline_us);
        if policy.sheds(queued, max_batch, estimate, deadline) {
            prop_assert!(
                policy.sheds(queued + extra, max_batch, estimate, deadline),
                "shed at depth {} but accepted at deeper {}", queued, queued + extra
            );
        } else {
            prop_assert!(
                !policy.sheds(
                    queued,
                    max_batch,
                    estimate,
                    deadline + Duration::from_micros(slack_us)
                ),
                "accepted with budget {:?} but shed with more slack", deadline
            );
        }
    }

    // The cold-start gate: with no estimate (fewer than `min_flushes`
    // samples recorded), nothing is ever shed, whatever the queue looks
    // like — an untrained estimator must not refuse traffic.
    #[test]
    fn cold_estimator_never_sheds(
        policy in feasibility(),
        queued in 0..4096usize,
        max_batch in 1..64usize,
        deadline_us in 0..1_000_000u64,
    ) {
        prop_assert!(!policy.sheds(
            queued,
            max_batch,
            None,
            Duration::from_micros(deadline_us)
        ));
    }

    // Predicted wait is `ceil(queued / max_batch)` flushes' worth of the
    // estimate: monotone in depth, anti-monotone in batch width, and an
    // empty queue predicts zero wait.
    #[test]
    fn predicted_wait_counts_whole_flushes(
        queued in 0..1024usize,
        max_batch in 1..64usize,
        ewma_us in 0..100_000u64,
    ) {
        let ewma = Duration::from_micros(ewma_us);
        let wait = predicted_wait(queued, max_batch, ewma);
        prop_assert_eq!(wait, ewma * (queued.div_ceil(max_batch) as u32));
        prop_assert!(predicted_wait(queued + 1, max_batch, ewma) >= wait);
        prop_assert!(predicted_wait(queued, max_batch + 1, ewma) <= wait);
        prop_assert_eq!(predicted_wait(0, max_batch, ewma), Duration::ZERO);
    }

    // Whatever signal sequence the supervisor feeds it, the brownout
    // level stays inside [Normal, DeclineColdShapes] and moves at most
    // one step per poll — degradation and recovery are both gradual.
    #[test]
    fn brownout_level_moves_one_step_at_a_time(
        signals in proptest::collection::vec(0..3u8, 0..64),
        hot_polls in 1..5u32,
        calm_polls in 1..5u32,
    ) {
        let policy = BrownoutPolicy {
            hot_polls,
            calm_polls,
            ..BrownoutPolicy::default()
        };
        policy.validate();
        let mut state = BrownoutState::default();
        let mut prev = state.level();
        prop_assert_eq!(prev, BrownoutLevel::Normal);
        for s in signals {
            let signal = match s {
                0 => BrownoutSignal::Hot,
                1 => BrownoutSignal::Calm,
                _ => BrownoutSignal::Neutral,
            };
            let level = state.observe(signal, &policy);
            let (lo, hi) = (prev.min(level), prev.max(level));
            prop_assert!(
                (lo as u8) + 1 >= hi as u8,
                "level jumped {:?} -> {:?}", prev, level
            );
            prop_assert!(level >= BrownoutLevel::Normal);
            prop_assert!(level <= BrownoutLevel::DeclineColdShapes);
            prev = level;
        }
    }
}
