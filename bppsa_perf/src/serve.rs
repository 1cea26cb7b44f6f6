//! `serve_mixed`: an open-loop generator offering independent backward
//! requests to one `BppsaService` across four lanes (three RNN chain
//! lengths and one long diagonal SSM chain).
//!
//! One generator thread does everything: it sleeps until the next request
//! is due (or until the oldest in-flight request completes), sends what is
//! due, and reaps what has completed. Requests are drawn from a fixed pool
//! of tickets and chains built during set-up; a completed request's chain
//! is reclaimed with `Ticket::take_chain` and reused, so the steady state
//! allocates nothing per request.

use crate::clock::{process_cpu_ms, thread_cpu_ms};
use crate::report::Report;
use crate::stats::{self, backlog_grew, due_latency_ms, lateness_ms, percentile};
use crate::trace::Tracer;
use crate::train::MODEL_SEED;
use bppsa_core::{linear_backward, BackwardResult, JacobianChain, PlanKind, PlannedScan};
use bppsa_models::{BitstreamDataset, DiagonalSsm, VanillaRnn};
use bppsa_serve::{lane_plan_options, BppsaService, ServeConfig, Ticket};
use bppsa_tensor::init::seeded_rng;
use rand::rngs::StdRng;
use rand::Rng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Latency limit of the backlog rule (see [`stats::backlog_grew`]).
pub const LIMIT: Duration = Duration::from_millis(20);
/// The two fixed offered rates, well below the closed-loop throughput
/// (about 2,300 requests/s on a 2-vCPU host).
pub const LO_RPS: f64 = 300.0;
pub const HI_RPS: f64 = 600.0;
/// How long each closed-loop window (one per window pair) runs.
const CLOSED_LOOP: Duration = Duration::from_millis(300);
/// RNN lane lengths (H = 20) and the diagonal lane (H = 64, T = 4096).
const RNN_H: usize = 20;
const RNN_T: &[usize] = &[64, 128, 256];
const SSM_H: usize = 64;
const SSM_T: usize = 4096;
/// Tickets (and chains) per lane. A due request that finds every slot of
/// its lane busy is refused: it would only have joined a growing queue.
const SLOTS: usize = 16;
/// One response in `CHECK_EVERY` (at a seeded phase) is compared bit for
/// bit against `PlannedScan::execute` on the same chain.
const CHECK_EVERY: u64 = 16;
/// Longest the generator sleeps while requests are in flight, so that a
/// completion on a lane other than the oldest request's is stamped late by
/// at most this much.
const POLL: Duration = Duration::from_micros(200);
/// Generator lateness (p99) above which a rate's figures are invalid: a
/// quarter of the latency limit. Lateness is charged to the request (its
/// latency runs from the due time), so below this the figures stand.
const LATE_INVALID_MS: f64 = 5.0;
/// Fewest requests in a measurement window: enough for a p50 with a
/// hundred samples beyond it (see [`stats::percentile`]).
const WINDOW_REQUESTS: usize = 250;
/// Windows at each fixed rate, interleaved with the other rate's.
const FIXED_WINDOWS: usize = 10;
/// Share of the run spent in the fixed-rate windows; a longer run puts
/// more requests in each window.
const FIXED_SHARE: f64 = 0.75;
/// Rounds of the mix (one request per lane) timed on the caller thread for
/// `bwd_speedup_vs_bp` and the baseline's CPU time, before each pair of
/// fixed-rate windows: spread over the run, they sample the host at several
/// moments.
const CALLER_ROUNDS: usize = 12;

struct Slot {
    ticket: Ticket<f32>,
    chain: Option<JacobianChain<f32>>,
    /// `PlannedScan::execute` on this slot's chain with the lane's options.
    reference: BackwardResult<f32>,
    /// `(request id, due, sent, submit returned)` while in flight.
    flight: Option<(u64, Instant, Instant, Instant)>,
}

struct Lane {
    slots: Vec<Slot>,
    free: Vec<usize>,
    plan: PlannedScan,
}

/// The request mix and the service it is offered to.
pub struct ServeSetup {
    service: BppsaService<f32>,
    lanes: Vec<Lane>,
}

fn rnn_chains(seed: u64, t: usize, n: usize) -> Vec<JacobianChain<f32>> {
    let data = BitstreamDataset::<f32>::generate(n, t, seed ^ t as u64);
    let rnn = VanillaRnn::<f32>::new(1, RNN_H, 10, &mut seeded_rng(MODEL_SEED));
    (0..n)
        .map(|i| {
            let s = data.sample(i);
            let states = rnn.forward(&s.bits);
            let (_, seed, gl) = rnn.loss_and_seed(&states, s.label);
            rnn.build_batched_chain(&[(s.bits.as_slice(), &states, seed, gl)])
        })
        .collect()
}

fn ssm_chains(seed: u64, n: usize) -> Vec<JacobianChain<f32>> {
    let data = BitstreamDataset::<f32>::generate(n, SSM_T, seed ^ 0x55);
    let ssm = DiagonalSsm::<f32>::new(SSM_H, 10, &mut seeded_rng(MODEL_SEED));
    (0..n)
        .map(|i| {
            let s = data.sample(i);
            let states = ssm.forward(&s.bits);
            let (_, seed, _) = ssm.loss_and_seed(&states, s.label);
            ssm.build_chain(&states, &seed)
        })
        .collect()
}

/// The service configuration, recorded in the output.
pub fn config() -> ServeConfig {
    ServeConfig::default()
}

/// Builds the chains, their reference results and the service, and warms
/// every lane with one request.
pub fn setup(seed: u64) -> ServeSetup {
    let service = BppsaService::new(config());
    let mut groups: Vec<Vec<JacobianChain<f32>>> =
        RNN_T.iter().map(|&t| rnn_chains(seed, t, SLOTS)).collect();
    groups.push(ssm_chains(seed, SLOTS));
    let lanes: Vec<Lane> = groups
        .into_iter()
        .map(|chains| {
            let plan = PlannedScan::plan(&chains[0], lane_plan_options(chains[0].num_layers()));
            let slots: Vec<Slot> = chains
                .into_iter()
                .map(|chain| Slot {
                    ticket: Ticket::new(),
                    reference: plan.execute(&chain),
                    chain: Some(chain),
                    flight: None,
                })
                .collect();
            Lane {
                free: (0..slots.len()).rev().collect(),
                slots,
                plan,
            }
        })
        .collect();
    let mut s = ServeSetup { service, lanes };
    // Warm-up: one blocking request per lane builds its plan and pool.
    for lane in &mut s.lanes {
        let slot = &mut lane.slots[0];
        let chain = slot.chain.take().expect("idle slot holds its chain");
        s.service
            .submit(chain, &slot.ticket)
            .expect("warm-up submit");
        slot.ticket.wait().expect("warm-up request served");
        slot.chain = Some(slot.ticket.take_chain());
    }
    s
}

/// One measurement window: at one offered rate, or the closed loop.
struct RateRun {
    /// How long arrivals ran, ms (set when they stop).
    window_ms: f64,
    latencies: Vec<f64>,
    late: Vec<f64>,
    submit_us: Vec<f64>,
    refused: u64,
    failed: u64,
    checked: u64,
    mismatched: u64,
    backlog_grew: bool,
    /// CPU time of the whole process from a fixed-rate window's start until
    /// its last request completed, ms.
    cpu_ms: f64,
    /// Requests served without error.
    served: u64,
}

impl RateRun {
    fn new(expect: usize) -> Self {
        Self {
            window_ms: 0.0,
            latencies: Vec::with_capacity(expect),
            late: Vec::with_capacity(expect),
            submit_us: Vec::with_capacity(expect),
            refused: 0,
            failed: 0,
            checked: 0,
            mismatched: 0,
            backlog_grew: false,
            cpu_ms: 0.0,
            served: 0,
        }
    }

    /// Percentile `q` of the window's latencies. A refused request misses
    /// every limit: a percentile that falls on one reads as the whole window.
    fn p(&self, q: f64) -> f64 {
        percentile(&self.latencies, q)
            .expect("a window holds WINDOW_REQUESTS requests")
            .min(self.window_ms)
    }
}

fn exp_gap(rng: &mut StdRng, rate: f64) -> Duration {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    Duration::from_secs_f64(-u.ln() / rate)
}

impl ServeSetup {
    /// Offers `requests` Poisson arrivals at `rate`, then drains.
    fn offer(
        &mut self,
        rate: f64,
        requests: usize,
        rng: &mut StdRng,
        next_id: &mut u64,
        mut tracer: Option<&mut Tracer>,
    ) -> RateRun {
        let mut run = RateRun::new(requests);
        let c0 = process_cpu_ms();
        let check_phase = rng.random_range(0..CHECK_EVERY);
        let start = Instant::now();
        let mut due = start + exp_gap(rng, rate);
        let (mut left, mut outstanding) = (requests, 0usize);
        loop {
            // Reap completions.
            if outstanding > 0 {
                outstanding -= self.reap(&mut run, check_phase, tracer.as_deref_mut());
            }
            // Send everything due.
            while left > 0 && due <= Instant::now() {
                let lane = rng.random_range(0..self.lanes.len());
                if self.send(lane, due, next_id, &mut run) {
                    outstanding += 1;
                }
                left -= 1;
                if left > 0 {
                    due += exp_gap(rng, rate);
                }
            }
            if left == 0 {
                break;
            }
            // Sleep until the next arrival, waking early for the oldest
            // in-flight request.
            let now = Instant::now();
            let wake = due.max(now);
            let wake = if outstanding > 0 {
                wake.min(now + POLL)
            } else {
                wake
            };
            match self.oldest_in_flight() {
                Some(ticket) if wake > now => {
                    let _ = ticket.wait_timeout(wake - now);
                }
                _ if wake > now => std::thread::sleep(wake - now),
                _ => {}
            }
        }
        run.window_ms = (due - start).as_secs_f64() * 1e3;
        run.backlog_grew = backlog_grew(outstanding, rate, LIMIT, config().max_batch);
        while outstanding > 0 {
            if let Some(ticket) = self.oldest_in_flight() {
                let _ = ticket.wait_timeout(POLL);
            }
            outstanding -= self.reap(&mut run, check_phase, tracer.as_deref_mut());
        }
        run.cpu_ms = process_cpu_ms() - c0;
        run
    }

    /// Closed loop: keeps every slot of every lane in flight for `dur`,
    /// resubmitting each request as soon as it completes, then drains.
    /// Returns the run and the requests completed per second in the window.
    fn saturate(
        &mut self,
        dur: Duration,
        rng: &mut StdRng,
        next_id: &mut u64,
        mut tracer: Option<&mut Tracer>,
    ) -> (RateRun, f64) {
        let mut run = RateRun::new((dur.as_secs_f64() * 5000.0) as usize);
        run.window_ms = dur.as_secs_f64() * 1e3;
        let check_phase = rng.random_range(0..CHECK_EVERY);
        let start = Instant::now();
        let end = start + dur;
        let (mut outstanding, mut completed) = (0usize, 0usize);
        loop {
            for lane in 0..self.lanes.len() {
                while !self.lanes[lane].free.is_empty() {
                    if !self.send(lane, Instant::now(), next_id, &mut run) {
                        break;
                    }
                    outstanding += 1;
                }
            }
            let now = Instant::now();
            if now >= end {
                break;
            }
            if let Some(ticket) = self.oldest_in_flight() {
                let _ = ticket.wait_timeout(POLL.min(end - now));
            }
            let n = self.reap(&mut run, check_phase, tracer.as_deref_mut());
            outstanding -= n;
            completed += n;
        }
        let throughput = completed as f64 / start.elapsed().as_secs_f64();
        while outstanding > 0 {
            if let Some(ticket) = self.oldest_in_flight() {
                let _ = ticket.wait_timeout(POLL);
            }
            outstanding -= self.reap(&mut run, check_phase, tracer.as_deref_mut());
        }
        (run, throughput)
    }

    /// Sends one request, due at `due`, on a free slot of `lane`. Returns
    /// whether it is in flight; a request that finds no free slot, or that
    /// the service refuses, is recorded as refused.
    fn send(&mut self, lane: usize, due: Instant, next_id: &mut u64, run: &mut RateRun) -> bool {
        let id = *next_id;
        *next_id += 1;
        let lane = &mut self.lanes[lane];
        let Some(si) = lane.free.pop() else {
            run.refused += 1;
            run.latencies.push(due_latency_ms(due, None));
            return false;
        };
        let slot = &mut lane.slots[si];
        let chain = slot.chain.take().expect("free slot holds its chain");
        let sent = Instant::now();
        let res = self.service.try_submit(chain, &slot.ticket);
        let returned = Instant::now();
        run.late.push(lateness_ms(due, sent));
        run.submit_us.push((returned - sent).as_secs_f64() * 1e6);
        match res {
            Ok(()) => {
                slot.flight = Some((id, due, sent, returned));
                true
            }
            Err(e) => {
                slot.chain = Some(e.into_chain());
                lane.free.push(si);
                run.refused += 1;
                run.latencies.push(due_latency_ms(due, None));
                false
            }
        }
    }

    fn oldest_in_flight(&self) -> Option<&Ticket<f32>> {
        self.lanes
            .iter()
            .flat_map(|l| l.slots.iter())
            .filter_map(|s| s.flight.map(|f| (f.0, &s.ticket)))
            .min_by_key(|(id, _)| *id)
            .map(|(_, t)| t)
    }

    /// Collects every completed request; returns how many completed.
    fn reap(
        &mut self,
        run: &mut RateRun,
        check_phase: u64,
        mut tracer: Option<&mut Tracer>,
    ) -> usize {
        let mut n = 0;
        for lane in &mut self.lanes {
            for (si, slot) in lane.slots.iter_mut().enumerate() {
                let Some((id, due, sent, returned)) = slot.flight else {
                    continue;
                };
                if !slot.ticket.is_done() {
                    continue;
                }
                let done = Instant::now();
                slot.flight = None;
                n += 1;
                match slot.ticket.wait() {
                    Ok(()) => {
                        run.served += 1;
                        run.latencies.push(due_latency_ms(due, Some(done)));
                        if id % CHECK_EVERY == check_phase {
                            run.checked += 1;
                            let same = slot.ticket.with_result(|r| same_bits(r, &slot.reference));
                            if !same {
                                run.mismatched += 1;
                            }
                        }
                    }
                    Err(_) => {
                        run.failed += 1;
                        run.latencies.push(due_latency_ms(due, None));
                    }
                }
                if let Some(tr) = tracer.as_deref_mut() {
                    let req = tr.record("request", id, None, due, done);
                    tr.record("serve.submit", id, Some(req), sent, returned);
                }
                slot.chain = Some(slot.ticket.take_chain());
                lane.free.push(si);
            }
        }
        n
    }
}

fn same_bits(a: &BackwardResult<f32>, b: &BackwardResult<f32>) -> bool {
    a.grads().len() == b.grads().len()
        && a.grads().iter().zip(b.grads()).all(|(x, y)| {
            x.len() == y.len()
                && x.as_slice()
                    .iter()
                    .zip(y.as_slice())
                    .all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

/// Runs the serving workload for about `seconds`: [`FIXED_WINDOWS`]
/// times, a block of caller-thread rounds, one window at each fixed rate
/// and a closed-loop window — interleaved, so that a slow stretch of the
/// host hits every measure alike.
pub fn run(
    s: &mut ServeSetup,
    seed: u64,
    seconds: f64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) {
    let mut rng = seeded_rng(seed ^ 0x5e7e);
    let mut next_id = 0u64;
    // A pair of windows (one per rate, the same number of requests each)
    // takes `n / LO_RPS + n / HI_RPS` seconds; the pairs fill
    // [`FIXED_SHARE`] of the run, with at least [`WINDOW_REQUESTS`] each.
    let pair_s = FIXED_SHARE * seconds / FIXED_WINDOWS as f64;
    let n = ((pair_s / (1.0 / LO_RPS + 1.0 / HI_RPS)) as usize).max(WINDOW_REQUESTS);

    let (mut bwd, mut bp, mut bp_cpu) = (Vec::new(), Vec::new(), Vec::new());
    let (mut lo, mut hi, mut closed) = (Vec::new(), Vec::new(), Vec::new());
    let mut capacity = Vec::new();
    for _ in 0..FIXED_WINDOWS {
        // Per-request backward on the caller thread, BPPSA vs sequential.
        caller_backward(s, &mut rng, &mut bwd, &mut bp, &mut bp_cpu);
        lo.push(s.offer(LO_RPS, n, &mut rng, &mut next_id, tracer.as_deref_mut()));
        hi.push(s.offer(HI_RPS, n, &mut rng, &mut next_id, tracer.as_deref_mut()));
        let (run, rps) = s.saturate(CLOSED_LOOP, &mut rng, &mut next_id, tracer.as_deref_mut());
        closed.push(run);
        capacity.push(rps);
    }
    let fixed = [Phase::new(LO_RPS, lo), Phase::new(HI_RPS, hi)];
    let capacity_p50 = stats::median(&capacity);
    println!(
        "# closed loop: median {capacity_p50:.1} requests/s over {} windows of {} ms with every slot in flight ({} requests)",
        closed.len(),
        CLOSED_LOOP.as_millis(),
        closed.iter().map(|w| w.latencies.len()).sum::<usize>()
    );
    for p in &fixed {
        p.print();
    }

    // Accounting: every offered request is an attempt; a request the
    // service failed is a failed operation. A refused one (service
    // back-pressure, or every slot of its lane still busy) is load the
    // system did not take: it misses every latency limit and shows in
    // `serve.refused_frac`, but it is not an error.
    let windows = || {
        fixed
            .iter()
            .flat_map(|p| p.windows.iter())
            .chain(closed.iter())
    };
    report.attempted += windows().map(|w| w.latencies.len() as u64).sum::<u64>();
    report.failed += windows().map(|w| w.failed).sum::<u64>();
    let checked: u64 = windows().map(|w| w.checked).sum();
    let mismatched: u64 = windows().map(|w| w.mismatched).sum();
    println!("# checked {checked} sampled responses bit for bit against PlannedScan::execute: {mismatched} mismatched");
    for _ in 0..mismatched {
        report.check_failed("served response differs from PlannedScan::execute");
    }
    if checked == 0 {
        report.check_failed("no served response was sampled for checking");
    }
    if fixed.iter().any(|p| !p.valid()) {
        println!(
            "# WARNING: the generator fell behind at a fixed rate; its latency figures are invalid"
        );
    }

    match tracer {
        None => {
            let bwd_p50 = percentile(&bwd, 0.5).expect("enough caller samples");
            let bp_p50 = percentile(&bp, 0.5).expect("enough caller samples");
            println!(
                "# caller thread (wall clock, ungated): bwd_ms_p50 {bwd_p50:.4}, bp_bwd_ms_p50 {bp_p50:.4} ({} rounds of one request per lane)",
                bwd.len()
            );
            // CPU the service (and the generator) spent per request served
            // at the fixed rates, against the sequential baseline's CPU per
            // request of the same mix on the caller thread.
            let fixed_windows = || fixed.iter().flat_map(|p| p.windows.iter());
            let served: u64 = fixed_windows().map(|w| w.served).sum();
            let served_cpu = fixed_windows().map(|w| w.cpu_ms).sum::<f64>() / served.max(1) as f64;
            let bp_cpu_per_request = stats::median(&bp_cpu) / s.lanes.len() as f64;
            println!(
                "# cpu time (ungated): {served_cpu:.4} ms per request served at the fixed rates, {bp_cpu_per_request:.4} ms per sequential backward of the same mix"
            );
            report.set("bwd_speedup_vs_bp", stats::paired_ratio(&bp, &bwd));
            report.set("bwd_cpu_vs_bp", served_cpu / bp_cpu_per_request);
        }
        Some(tr) => per_layer(s, tr, &fixed, &closed, report),
    }
}

/// The windows measured at one offered rate.
struct Phase {
    rate: f64,
    windows: Vec<RateRun>,
}

impl Phase {
    fn new(rate: f64, windows: Vec<RateRun>) -> Self {
        Self { rate, windows }
    }

    /// p99 over every request of every window.
    fn p99(&self) -> f64 {
        self.pooled(0.99)
    }

    /// p50 over every request of every window.
    fn p50(&self) -> f64 {
        self.pooled(0.5)
    }

    fn pooled(&self, q: f64) -> f64 {
        let all: Vec<f64> = self
            .windows
            .iter()
            .flat_map(|w| w.latencies.iter().copied())
            .collect();
        percentile(&all, q).expect("windows hold enough requests")
    }

    fn late(&self) -> Vec<f64> {
        self.windows
            .iter()
            .flat_map(|w| w.late.iter().copied())
            .collect()
    }

    fn valid(&self) -> bool {
        percentile(&self.late(), 0.99).unwrap_or(0.0) <= LATE_INVALID_MS
    }

    fn print(&self) {
        let sum = |f: fn(&RateRun) -> u64| self.windows.iter().map(f).sum::<u64>();
        let late = self.late();
        let window_p50: Vec<String> = self
            .windows
            .iter()
            .map(|w| format!("{:.3}", w.p(0.5)))
            .collect();
        println!(
            "# rate {:>6.0} rps (raw wall-clock): {} requests in {} window(s), p50 {:.3} ms (windows {}), p99 {:.3} ms, refused {}, failed {}, backlog grew {}, generator late p99 {:.3} ms max {:.3} ms{}",
            self.rate,
            self.windows.iter().map(|w| w.latencies.len()).sum::<usize>(),
            self.windows.len(),
            self.p50(),
            window_p50.join(" "),
            self.p99(),
            sum(|w| w.refused),
            sum(|w| w.failed),
            self.windows.iter().any(|w| w.backlog_grew),
            percentile(&late, 0.99).unwrap_or(f64::NAN),
            late.iter().copied().fold(0.0, f64::max),
            if self.valid() { "" } else { " — INVALID: generator fell behind" }
        );
    }
}

/// Times [`CALLER_ROUNDS`] rounds of the mix on the caller thread into
/// `bwd` and `bp`, one request per lane each (a round, not a single
/// request, so that the median does not fall between the lanes' very
/// different costs): the lanes' compiled plans against the sequential
/// baseline on the same chains.
fn caller_backward(
    s: &mut ServeSetup,
    rng: &mut StdRng,
    bwd: &mut Vec<f64>,
    bp: &mut Vec<f64>,
    bp_cpu: &mut Vec<f64>,
) {
    let mut workspaces: Vec<_> = s.lanes.iter().map(|l| l.plan.workspace::<f32>()).collect();
    for _ in 0..CALLER_ROUNDS {
        let (mut scan_s, mut seq_s, mut seq_cpu) = (0.0, 0.0, 0.0);
        for (lane, ws) in s.lanes.iter().zip(&mut workspaces) {
            let chain = lane.slots[rng.random_range(0..lane.slots.len())]
                .chain
                .as_ref()
                .expect("idle between phases");
            let t0 = Instant::now();
            black_box(lane.plan.execute_with(chain, ws));
            let t1 = Instant::now();
            let c1 = thread_cpu_ms();
            black_box(linear_backward(chain));
            seq_cpu += thread_cpu_ms() - c1;
            scan_s += (t1 - t0).as_secs_f64();
            seq_s += t1.elapsed().as_secs_f64();
        }
        bwd.push(scan_s * 1e3);
        bp.push(seq_s * 1e3);
        bp_cpu.push(seq_cpu);
    }
}

/// Per-layer serving metrics.
fn per_layer(
    s: &ServeSetup,
    tr: &Tracer,
    fixed: &[Phase],
    closed: &[RateRun],
    report: &mut Report,
) {
    let windows = || fixed.iter().flat_map(|p| p.windows.iter()).chain(closed);
    let submit: Vec<f64> = windows()
        .flat_map(|w| w.submit_us.iter().copied())
        .collect();
    report.set(
        "serve.submit_us_p50",
        percentile(&submit, 0.5).unwrap_or(0.0),
    );
    report.set(
        "serve.submit_us_p99",
        percentile(&submit, 0.99).unwrap_or(0.0),
    );
    let lanes = s.service.metrics();
    let sum =
        |f: &dyn Fn(&bppsa_serve::LaneMetricsSnapshot) -> f64| lanes.iter().map(f).sum::<f64>();
    report.set("serve.plan_ms", sum(&|l| l.plan_time.as_secs_f64() * 1e3));
    report.set(
        "serve.warmup_ms",
        sum(&|l| l.warmup_time.as_secs_f64() * 1e3),
    );
    let flushes = sum(&|l| l.flushes() as f64);
    report.set("serve.flushes", flushes);
    report.set(
        "serve.mean_batch",
        sum(&|l| l.requests_flushed() as f64) / flushes.max(1.0),
    );
    report.set(
        "serve.deadline_flush_frac",
        sum(&|l| l.deadline_flushes as f64) / flushes.max(1.0),
    );
    let ewma = |kind: PlanKind| {
        let v: Vec<f64> = lanes
            .iter()
            .filter(|l| l.plan_kind == Some(kind))
            .map(|l| l.ewma_flush_latency.as_secs_f64() * 1e3)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    report.set("serve.ewma_flush_ms_csr", ewma(PlanKind::Csr));
    report.set("serve.ewma_flush_ms_diag", ewma(PlanKind::Diagonal));
    report.set("serve.lanes_created", s.service.lanes_created() as f64);
    let offered: usize = windows().map(|w| w.latencies.len()).sum();
    let refused: u64 = windows().map(|w| w.refused).sum();
    report.set("serve.refused_frac", refused as f64 / offered.max(1) as f64);
    let late: Vec<f64> = fixed.iter().flat_map(Phase::late).collect();
    report.set("gen.late_ms_p99", percentile(&late, 0.99).unwrap_or(0.0));
    report.set("gen.late_ms_max", late.iter().copied().fold(0.0, f64::max));
    let requests = tr.spans().iter().filter(|sp| sp.name == "request").count();
    println!("# traced {requests} requests");
}

impl Drop for ServeSetup {
    fn drop(&mut self) {
        self.service.shutdown();
    }
}
