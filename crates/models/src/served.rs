//! Routing recurrent backward passes through the `bppsa-serve` front door.
//!
//! [`PooledChainSet`](crate::PooledChainSet) fans a mini-batch's per-sample
//! chains over a *directly owned* [`BatchedBackward`](bppsa_core::BatchedBackward);
//! this module supplies the complementary deployment shape — the same
//! per-sample chains submitted as **independent requests** to a
//! [`BppsaService`], which coalesces them (together with any other traffic
//! sharing the service) into batched fan-outs under its deadline policy.
//! Training uses it via
//! [`BackwardMethod::BppsaServed`](crate::train::BackwardMethod::BppsaServed);
//! inference-time gradient serving over *heterogeneous* sequence lengths
//! uses [`VanillaRnn::serve_sample_gradients`](crate::VanillaRnn::serve_sample_gradients)
//! on a shared service.
//!
//! The gradient-sum validity argument is the pooled path's (§2.2: the
//! optimizer consumes the batch sum, which is insensitive to which
//! lane/workspace computed which sample), and so is the shape economy: the
//! per-sample chain shape is batch-size independent, so a whole training
//! run — remainder batches included — routes through **one** service lane.

use bppsa_core::{BackwardResult, JacobianChain};
use bppsa_serve::{BppsaService, ServeConfig, SubmitRefusal, Ticket};
use bppsa_tensor::Scalar;
use std::time::Duration;

/// Terminal submit failure of a served backward pass: one request's
/// submission was refused and the refusal stuck — either it is not
/// retryable at all ([`SubmitRefusal::is_transient`] is `false`), or the
/// service's [`RetryPolicy`](bppsa_serve::RetryPolicy) budget (configured
/// in [`ServeConfig::retry`]) was exhausted retrying it. Retry pacing is
/// entirely the service's: this crate no longer hard-codes budgets or
/// backoffs.
///
/// Surfaced as a typed error (instead of the panic this path used to
/// raise) so callers sharing a service with foreign traffic can decide —
/// skip the batch, re-route to an owned executor, or abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServedSubmitError {
    /// Index (within the submitted batch/request slice) of the refused
    /// request. Requests before it were submitted and have been waited
    /// out; requests after it were never submitted.
    pub index: usize,
    /// What the service answered, chain-free (the chain was returned to
    /// its slot).
    pub refusal: SubmitRefusal,
}

impl std::fmt::Display for ServedSubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "served backward: request {} refused past the retry budget: {}",
            self.index, self.refusal
        )
    }
}

impl std::error::Error for ServedSubmitError {}

/// A lazily-built set of structurally-identical per-sample chains plus the
/// [`BppsaService`] front door they are submitted through — the served
/// counterpart of [`PooledChainSet`](crate::PooledChainSet).
///
/// Owned by a training loop (inside
/// [`RecurrentTrainState`](crate::RecurrentTrainState)); models call
/// [`ServedChainSet::ensure`] with their chain shape each iteration,
/// refresh chain *values* in place via [`ServedChainSet::for_each_chain_mut`],
/// and submit-and-collect with [`ServedChainSet::execute`]. The chains are
/// clones of one template (shared `Arc` sparsity patterns), so every
/// request routes to the same lane by pointer equality, and the service
/// plans that lane exactly once per shape.
#[derive(Debug, Default)]
pub struct ServedChainSet<S> {
    service: Option<BppsaService<S>>,
    entry: Option<Entry<S>>,
}

#[derive(Debug)]
struct Entry<S> {
    /// `(chain length, element width)` of the per-sample chains.
    key: (usize, usize),
    /// One refreshable chain per batch slot (`None` only while in flight);
    /// all clones of slot 0's template.
    chains: Vec<Option<JacobianChain<S>>>,
    /// One reusable completion handle per batch slot.
    tickets: Vec<Ticket<S>>,
}

impl<S> ServedChainSet<S> {
    /// An empty set (creates its service and lane on first
    /// [`ServedChainSet::ensure`]).
    pub fn new() -> Self {
        Self {
            service: None,
            entry: None,
        }
    }

    /// Lanes the underlying service ever built — stays at `1` for a whole
    /// steady-shape training run including remainder batches, since the
    /// per-sample chain shape is batch-size independent.
    pub fn lanes_built(&self) -> usize {
        self.service.as_ref().map_or(0, BppsaService::lanes_created)
    }

    /// The underlying service, once created (for sharing with other
    /// request sources or inspecting lane state).
    pub fn service(&self) -> Option<&BppsaService<S>> {
        self.service.as_ref()
    }
}

impl<S: Scalar> ServedChainSet<S> {
    /// Ensures `n` chains of shape `key` exist (building the template with
    /// `build` when the shape changed) and that the service is sized to
    /// coalesce a full batch: `max_batch` is fixed at first use from `n`.
    /// Smaller (remainder) batches flush by deadline instead — the lane and
    /// its plan are shape-keyed, not batch-size-keyed, so they are reused.
    ///
    /// The front door always compiles the full serial-schedule plan for a
    /// lane; schedule selection (§5.2 hybrid) is not routed through it.
    pub fn ensure(
        &mut self,
        key: (usize, usize),
        n: usize,
        build: impl FnOnce() -> JacobianChain<S>,
    ) {
        self.service.get_or_insert_with(|| {
            BppsaService::new(ServeConfig {
                max_batch: n.max(1),
                // Training submits the whole batch back-to-back; the
                // deadline only covers remainder batches below max_batch.
                max_delay: Duration::from_micros(100),
                queue_cap: (2 * n).max(16),
                ..ServeConfig::default()
            })
        });
        let rebuild = match &self.entry {
            Some(e) => e.key != key,
            None => true,
        };
        if rebuild {
            let template = build();
            self.entry = Some(Entry {
                key,
                chains: vec![Some(template)],
                tickets: vec![Ticket::new()],
            });
        }
        let entry = self.entry.as_mut().expect("entry just ensured");
        while entry.chains.len() < n {
            let clone = entry.chains[0]
                .as_ref()
                .expect("template at rest between executes")
                .clone();
            entry.chains.push(Some(clone));
            entry.tickets.push(Ticket::new());
        }
    }

    /// Applies `refresh` to each of the first `n` chains, for in-place
    /// value refresh between iterations.
    ///
    /// # Panics
    ///
    /// Panics if [`ServedChainSet::ensure`] has not provided `n` chains.
    pub fn for_each_chain_mut(
        &mut self,
        n: usize,
        mut refresh: impl FnMut(usize, &mut JacobianChain<S>),
    ) {
        let entry = self.entry.as_mut().expect("ensure() not called");
        for (k, slot) in entry.chains[..n].iter_mut().enumerate() {
            refresh(k, slot.as_mut().expect("chain at rest"));
        }
    }

    /// Submits the first `n` chains as independent service requests
    /// (through the service's [`RetryPolicy`](bppsa_serve::RetryPolicy) —
    /// transient refusals like shedding or quarantine retry with backoff),
    /// waits for all of them, and streams each result to
    /// `consume(k, result)` on the calling thread (requests complete
    /// concurrently inside the service; consumption is sequential, so
    /// `consume` may freely mutate captured state). The chains return to
    /// their slots afterwards — on success *and* on error, so a refused
    /// batch can simply be re-executed.
    ///
    /// # Errors
    ///
    /// [`ServedSubmitError`] when a submission is refused past the retry
    /// budget. Requests submitted before the refusal are waited out (their
    /// results are discarded — the batch is incomplete) and every chain is
    /// back in its slot when this returns.
    ///
    /// # Panics
    ///
    /// Panics if [`ServedChainSet::ensure`] has not provided `n` chains, or
    /// if an *accepted* request fails (the owned service's default config
    /// has no breaker, no hard deadline, and no fault injection, so an
    /// accepted request can only fail on an internal bug).
    pub fn execute(
        &mut self,
        n: usize,
        consume: &mut dyn FnMut(usize, &BackwardResult<S>),
    ) -> Result<(), ServedSubmitError> {
        let entry = self.entry.as_mut().expect("ensure() not called");
        let service = self.service.as_ref().expect("service created by ensure");
        let mut failure = None;
        let mut submitted = 0;
        for (k, (slot, ticket)) in entry.chains[..n].iter_mut().zip(&entry.tickets).enumerate() {
            let chain = slot.take().expect("chain at rest");
            match service.submit_retrying(chain, ticket) {
                Ok(()) => submitted += 1,
                Err(e) => {
                    failure = Some(ServedSubmitError {
                        index: k,
                        refusal: e.kind(),
                    });
                    *slot = Some(e.into_chain());
                    break;
                }
            }
        }
        // Even on a refusal, everything already accepted must land (and
        // hand its chain back) before the error surfaces — never leave
        // requests in flight behind a returned error.
        for (k, (slot, ticket)) in entry.chains[..submitted]
            .iter_mut()
            .zip(&entry.tickets)
            .enumerate()
        {
            ticket
                .wait()
                .unwrap_or_else(|e| panic!("served backward: request {k} failed: {e}"));
            if failure.is_none() {
                ticket.with_result(|r| consume(k, r));
            }
            *slot = Some(ticket.take_chain());
        }
        failure.map_or(Ok(()), Err)
    }
}
