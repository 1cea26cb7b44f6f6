//! Submit-time admission: [`admit`], the one decision that queues, parks,
//! or refuses a request arriving at a lane, and the refusal types. Pure
//! like [`flush_decision`](crate::flush_decision) — no locks, atomics or
//! clock — so the proptests pin exactly what the enqueue path calls.

use crate::overload::FeasibilityPolicy;
use bppsa_core::JacobianChain;
use std::time::Duration;

/// When to refuse a request at submit time instead of queueing it — load
/// shedding for requests that are overwhelmingly likely to miss their
/// deadline anyway. Disabled by default.
///
/// Shedding is per lane and synchronous: a shed request never enters the
/// queue, its chain is handed back in [`SubmitError::Shed`], and the lane's
/// shed counter ([`LaneMetricsSnapshot::shed`](crate::LaneMetricsSnapshot::shed))
/// records the refusal. [`admit`] applies every threshold below.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShedPolicy {
    /// Refuse when the target lane already has this many requests queued.
    /// Must be non-zero when set. Values above
    /// [`ServeConfig::queue_cap`](crate::ServeConfig::queue_cap) are inert
    /// (the queue can never get that deep); at exactly `queue_cap`, a full
    /// queue *sheds* non-seeding requests where blocking backpressure would
    /// otherwise have parked them — an armed policy prefers refusal over
    /// waiting.
    pub max_queue_depth: Option<usize>,
    /// Deadline feasibility during bring-up: refuse a request whose delay
    /// budget is below this while its lane is still
    /// [`Warming`](crate::LaneState::Warming) — the warm-up (symbolic
    /// planning + workspace construction) would consume the budget before
    /// the first flush could run. Seeding and non-blocking requests are
    /// exempt (see [`admit`]).
    pub min_warming_delay: Option<Duration>,
    /// Deadline feasibility in steady state: refuse a request whose delay
    /// budget the lane's own measured flush latency says cannot be met —
    /// predicted wait (queue depth, batch width, EWMA flush latency, see
    /// [`predicted_wait`](crate::predicted_wait)) strictly exceeding the
    /// budget refuses with [`SubmitError::Infeasible`] (not counted as a
    /// shed — [`LaneMetricsSnapshot::infeasible`](crate::LaneMetricsSnapshot::infeasible)
    /// records it separately). Inert until the lane has served
    /// [`FeasibilityPolicy::min_flushes`] flushes, so a cold estimator
    /// never refuses anything.
    pub feasibility: Option<FeasibilityPolicy>,
}

impl ShedPolicy {
    /// Never shed (the default): requests queue or block under plain
    /// backpressure.
    pub fn disabled() -> Self {
        Self::default()
    }

    pub(crate) fn validate(&self) {
        if let Some(depth) = self.max_queue_depth {
            assert!(depth >= 1, "ShedPolicy: max_queue_depth must be >= 1");
        }
    }
}

/// What an arriving request sees of its lane: the inputs [`admit`] reads,
/// captured under the lane's queue lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaneView {
    /// Requests already queued (not counting the arriving one).
    pub queue_depth: usize,
    /// The lane's queue bound.
    pub queue_cap: usize,
    /// The dispatcher's flush width: `max_batch` after brownout halving.
    pub max_batch: usize,
    /// The lane is still [`Warming`](crate::LaneState::Warming).
    pub warming: bool,
    /// EWMA flush latency; `None` below [`FeasibilityPolicy::min_flushes`].
    pub flush_estimate: Option<Duration>,
}

/// The arriving request, as [`admit`] sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmitRequest {
    /// The request's delay budget.
    pub delay: Duration,
    /// A blocking submit: parks on a full queue instead of refusing.
    pub block: bool,
    /// This request's routing created the lane.
    pub created_lane: bool,
}

/// What [`admit`] tells the enqueue path to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmitDecision {
    /// Queue the request now.
    Enqueue,
    /// Blocking backpressure: wait for queue room, then decide again.
    Park,
    /// Refuse the request, handing its chain back.
    Refuse(SubmitRefusal),
}

/// The per-lane admission table, applied in order:
///
/// 1. A request that **seeds** the lane's warm-up — its creator, or the
///    first request into an empty warming lane (the dispatcher plans from
///    whichever chain queues first) — skips steps 2–5: refusing it would
///    leave the lane warming forever.
/// 2. Queue depth ≥ [`ShedPolicy::max_queue_depth`] →
///    [`Shed`](SubmitRefusal::Shed).
/// 3. Warming and non-blocking → [`LaneWarming`](SubmitRefusal::LaneWarming).
/// 4. Warming and blocking, with a delay below
///    [`ShedPolicy::min_warming_delay`] → [`Shed`](SubmitRefusal::Shed).
/// 5. Feasibility armed and the predicted wait
///    ([`FeasibilityPolicy::sheds`]) over the delay →
///    [`Infeasible`](SubmitRefusal::Infeasible).
/// 6. Depth below `queue_cap` → [`Enqueue`](AdmitDecision::Enqueue);
///    otherwise [`Backpressure`](SubmitRefusal::Backpressure) if
///    non-blocking, [`Park`](AdmitDecision::Park) if blocking.
///
/// Pure: monotone in depth and estimate, anti-monotone in delay — more
/// load never turns a refusal into an enqueue (pinned by proptests).
pub fn admit(policy: &ShedPolicy, lane: LaneView, request: AdmitRequest) -> AdmitDecision {
    let (depth, delay) = (lane.queue_depth, request.delay);
    let seeds_warmup = request.created_lane || (lane.warming && depth == 0);
    let too_deep = matches!(policy.max_queue_depth, Some(max) if depth >= max);
    let short_for_warmup = matches!(policy.min_warming_delay, Some(min) if delay < min);
    let infeasible = policy
        .feasibility
        .is_some_and(|p| p.sheds(depth, lane.max_batch, lane.flush_estimate, delay));
    let refusal = match (seeds_warmup, lane.warming, request.block) {
        (true, _, _) => None,
        _ if too_deep => Some(SubmitRefusal::Shed),
        (_, true, false) => Some(SubmitRefusal::LaneWarming),
        (_, true, true) if short_for_warmup => Some(SubmitRefusal::Shed),
        _ if infeasible => Some(SubmitRefusal::Infeasible),
        _ => None,
    };
    match refusal {
        Some(kind) => AdmitDecision::Refuse(kind),
        None if depth < lane.queue_cap => AdmitDecision::Enqueue,
        None if request.block => AdmitDecision::Park,
        None => AdmitDecision::Refuse(SubmitRefusal::Backpressure),
    }
}

/// Why a submission was refused; the chain is always handed back for retry
/// or disposal.
#[derive(Debug)]
pub enum SubmitError<S> {
    /// The service is shutting down (or already shut down).
    Shutdown(JacobianChain<S>),
    /// [`BppsaService::try_submit`](crate::BppsaService::try_submit) only:
    /// the target lane's queue is full.
    Backpressure(JacobianChain<S>),
    /// The ticket already has a request in flight — one flight per ticket
    /// at a time.
    TicketInFlight(JacobianChain<S>),
    /// [`BppsaService::try_submit`](crate::BppsaService::try_submit) only:
    /// the target lane is still [`Warming`](crate::LaneState::Warming) (its
    /// plan is being built on the dispatcher thread). Retry, block via
    /// [`BppsaService::submit`](crate::BppsaService::submit), or route
    /// elsewhere.
    LaneWarming(JacobianChain<S>),
    /// The [`ShedPolicy`] refused the request (queue too deep, or the delay
    /// budget is infeasible while the lane warms).
    Shed(JacobianChain<S>),
    /// The chain's shape is quarantined: a lane of this shape tripped its
    /// [`BreakerPolicy`](crate::BreakerPolicy) (or is mid-probe) and the
    /// cool-down has not produced a successful half-open probe yet.
    /// Transient — retry after the cool-down (e.g. via
    /// [`BppsaService::submit_retrying`](crate::BppsaService::submit_retrying)),
    /// or route the work elsewhere.
    Quarantined(JacobianChain<S>),
    /// The lane's own measured flush latency says the request cannot meet
    /// its delay budget (see [`ShedPolicy::feasibility`]): the predicted
    /// queue wait already exceeds the deadline, so queueing it would only
    /// burn a batch slot on a guaranteed miss. **Not transient** — an
    /// immediate retry faces the same queue and the same estimate; retry
    /// with a larger budget, or route elsewhere.
    Infeasible(JacobianChain<S>),
    /// The service is under memory pressure: the configured
    /// [`MemoryBudget`](crate::MemoryBudget) is exhausted and creating a
    /// lane for this (cold) shape was refused — either nothing was
    /// evictable, or the brownout controller is at
    /// [`BrownoutLevel::DeclineColdShapes`](crate::BrownoutLevel::DeclineColdShapes).
    /// Transient — pressure subsides as lanes retire and release their
    /// workspaces.
    MemoryPressure(JacobianChain<S>),
}

/// The chain-free identity of a [`SubmitError`] — `Copy`, comparable, and
/// displayable, for surfacing a refusal through layers that must not carry
/// the (potentially large) chain along, e.g. `bppsa-models`' typed
/// retry-exhaustion errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitRefusal {
    /// See [`SubmitError::Shutdown`].
    Shutdown,
    /// See [`SubmitError::Backpressure`].
    Backpressure,
    /// See [`SubmitError::TicketInFlight`].
    TicketInFlight,
    /// See [`SubmitError::LaneWarming`].
    LaneWarming,
    /// See [`SubmitError::Shed`].
    Shed,
    /// See [`SubmitError::Quarantined`].
    Quarantined,
    /// See [`SubmitError::Infeasible`].
    Infeasible,
    /// See [`SubmitError::MemoryPressure`].
    MemoryPressure,
}

impl SubmitRefusal {
    /// Whether retrying can ever help: `true` for the transient refusals
    /// ([`Backpressure`](Self::Backpressure),
    /// [`LaneWarming`](Self::LaneWarming), [`Shed`](Self::Shed),
    /// [`Quarantined`](Self::Quarantined),
    /// [`MemoryPressure`](Self::MemoryPressure)); `false` for
    /// [`Shutdown`](Self::Shutdown) (permanent),
    /// [`TicketInFlight`](Self::TicketInFlight) (a caller bug), and
    /// [`Infeasible`](Self::Infeasible) — an immediate retry of an
    /// infeasible request faces the same queue and the same latency
    /// estimate, so backing off and resubmitting only deepens the
    /// overload the refusal exists to relieve.
    pub fn is_transient(self) -> bool {
        !matches!(
            self,
            SubmitRefusal::Shutdown | SubmitRefusal::TicketInFlight | SubmitRefusal::Infeasible
        )
    }
}

impl std::fmt::Display for SubmitRefusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitRefusal::Shutdown => write!(f, "service is shutting down"),
            SubmitRefusal::Backpressure => write!(f, "lane queue is full"),
            SubmitRefusal::TicketInFlight => {
                write!(f, "ticket already has a request in flight")
            }
            SubmitRefusal::LaneWarming => {
                write!(f, "lane is still warming (plan being built)")
            }
            SubmitRefusal::Shed => write!(f, "request shed by load-shedding policy"),
            SubmitRefusal::Quarantined => {
                write!(f, "chain shape is quarantined by a tripped circuit breaker")
            }
            SubmitRefusal::Infeasible => {
                write!(f, "predicted queue wait exceeds the request's delay budget")
            }
            SubmitRefusal::MemoryPressure => {
                write!(f, "memory budget exhausted; cold-shape lane refused")
            }
        }
    }
}

impl std::error::Error for SubmitRefusal {}

impl<S> SubmitError<S> {
    /// The refusal `kind` carrying `chain` back to the caller.
    pub(crate) fn new(kind: SubmitRefusal, chain: JacobianChain<S>) -> Self {
        match kind {
            SubmitRefusal::Shutdown => SubmitError::Shutdown(chain),
            SubmitRefusal::Backpressure => SubmitError::Backpressure(chain),
            SubmitRefusal::TicketInFlight => SubmitError::TicketInFlight(chain),
            SubmitRefusal::LaneWarming => SubmitError::LaneWarming(chain),
            SubmitRefusal::Shed => SubmitError::Shed(chain),
            SubmitRefusal::Quarantined => SubmitError::Quarantined(chain),
            SubmitRefusal::Infeasible => SubmitError::Infeasible(chain),
            SubmitRefusal::MemoryPressure => SubmitError::MemoryPressure(chain),
        }
    }

    /// Reclaims the refused chain.
    pub fn into_chain(self) -> JacobianChain<S> {
        match self {
            SubmitError::Shutdown(c)
            | SubmitError::Backpressure(c)
            | SubmitError::TicketInFlight(c)
            | SubmitError::LaneWarming(c)
            | SubmitError::Shed(c)
            | SubmitError::Quarantined(c)
            | SubmitError::Infeasible(c)
            | SubmitError::MemoryPressure(c) => c,
        }
    }

    /// The refusal's chain-free identity (see [`SubmitRefusal`]).
    pub fn kind(&self) -> SubmitRefusal {
        match self {
            SubmitError::Shutdown(_) => SubmitRefusal::Shutdown,
            SubmitError::Backpressure(_) => SubmitRefusal::Backpressure,
            SubmitError::TicketInFlight(_) => SubmitRefusal::TicketInFlight,
            SubmitError::LaneWarming(_) => SubmitRefusal::LaneWarming,
            SubmitError::Shed(_) => SubmitRefusal::Shed,
            SubmitError::Quarantined(_) => SubmitRefusal::Quarantined,
            SubmitError::Infeasible(_) => SubmitRefusal::Infeasible,
            SubmitError::MemoryPressure(_) => SubmitRefusal::MemoryPressure,
        }
    }
}

impl<S> std::fmt::Display for SubmitError<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.kind().fmt(f)
    }
}
