//! The load generator: a closed loop for capacity, an open loop at a
//! fixed rate for latency. Both drive the served program over real
//! keep-alive HTTP connections (and the SDL tiles in-process) and check
//! every response as it arrives.

use crate::check::{body_hash, Answer};
use crate::inputs::{Inputs, Part, Step};
use crate::serve::{Served, LOAD_CONNECTIONS};
use crate::trace::{tag, Tracer};
use applab_bench::httpload::HttpClient;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Class label of a tile-fetch part.
pub const TILES_CLASS: &str = "SDL_Tiles";

/// Response bodies already reduced to a digest, keyed by
/// `(pool query, body hash)`: a body byte-identical to one already
/// digested needs no second parse.
pub type Seen = HashMap<(usize, u64), Answer>;

/// Shared, read-only context of the load threads.
pub struct Ctx<'a> {
    pub inputs: &'a Inputs,
    pub served: &'a Served,
    /// Client-side spans are recorded while this tracer is enabled.
    pub tracer: Option<&'a Tracer>,
    /// Digests found during warm-up.
    pub seen: &'a Seen,
    pub next_rid: &'a AtomicU64,
}

/// A traced operation: its request id and class.
#[derive(Debug, Clone, Copy)]
pub struct TracedOp {
    pub rid: u64,
    pub class: &'static str,
}

/// A traced step of the latency phase: its request ids and the latency
/// the load generator measured for it.
#[derive(Debug, Clone)]
pub struct TracedStep {
    pub rids: std::ops::Range<u64>,
    pub latency_ns: u64,
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Steps completed inside the phase window.
    pub steps: u64,
    /// Parts attempted, and parts that failed on the wire (transport
    /// error, non-200, unparsable body, failed tile fetch). Wrong answers
    /// are counted after the run, against the reference.
    pub attempted: u64,
    pub failed: u64,
    /// Open loop: `(arrival index, latency)` per step, latency timed
    /// from the scheduled send time.
    pub latencies: Vec<(usize, u64)>,
    /// How late the generator sent each open-loop step.
    pub lags_ns: Vec<u64>,
    /// `(query, body hash)` → digest and how many responses had it.
    pub answers: HashMap<(usize, u64), (Answer, u64)>,
    pub responses: u64,
    /// Response bodies parsed: the first of each distinct body.
    pub parsed: u64,
    pub body_bytes: u64,
    pub chunked: u64,
    pub tile_requests: u64,
    pub tile_hits: u64,
    pub traced_ops: Vec<TracedOp>,
    pub traced_steps: Vec<TracedStep>,
    /// Closed loop: the rate, steps per second, of every window of
    /// `Workload::mix_period` consecutive steps one connection completed
    /// (windows start every eighth of a period).
    pub group_rates: Vec<f64>,
    /// Closed loop: the time cap, not the step count, ended the phase.
    pub capped: bool,
}

impl Tally {
    pub fn merge(&mut self, o: Tally) {
        self.steps += o.steps;
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.latencies.extend(o.latencies);
        self.lags_ns.extend(o.lags_ns);
        for (k, (a, n)) in o.answers {
            self.answers.entry(k).or_insert((a, 0)).1 += n;
        }
        self.responses += o.responses;
        self.parsed += o.parsed;
        self.body_bytes += o.body_bytes;
        self.chunked += o.chunked;
        self.tile_requests += o.tile_requests;
        self.tile_hits += o.tile_hits;
        self.traced_ops.extend(o.traced_ops);
        self.traced_steps.extend(o.traced_steps);
        self.group_rates.extend(o.group_rates);
        self.capped |= o.capped;
    }

    /// Closed-loop throughput, steps per second: the connections times
    /// the median rate of one connection over a window of one mix
    /// period. Each window does the same mix of work, and the median keeps
    /// a burst of host noise in a few of them from moving the figure.
    pub fn throughput(&self) -> f64 {
        LOAD_CONNECTIONS as f64 * crate::report::median_f64(&self.group_rates)
    }
}

fn connect(addr: SocketAddr) -> HttpClient {
    let c = HttpClient::connect(addr).expect("connect a load connection");
    c.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set the client read timeout");
    c
}

/// Run one step on `client`, checking every part. Returns whether every
/// part succeeded.
fn run_step(
    ctx: &Ctx,
    client: &mut HttpClient,
    step: &Step,
    tally: &mut Tally,
    traced_rids: &mut Option<std::ops::Range<u64>>,
) -> bool {
    let served = ctx.served;
    if let Some(obda) = &served.obda {
        obda.clock.advance(Duration::from_millis(step.gap_ms));
    }
    let tracer = ctx.tracer.filter(|t| t.enabled());
    let rid0 = ctx
        .next_rid
        .fetch_add(step.parts.len() as u64, Ordering::Relaxed);
    if tracer.is_some() {
        *traced_rids = Some(rid0..rid0 + step.parts.len() as u64);
    }
    let mut all_ok = true;
    for (i, part) in step.parts.iter().enumerate() {
        let rid = rid0 + i as u64;
        let op_id = tracer.map(|t| t.next_id()).unwrap_or(0);
        let op_start = Instant::now();
        tally.attempted += 1;
        let (ok, class) = match *part {
            Part::Query(q) => {
                let pool = &ctx.inputs.queries[q];
                let http_id = tracer.map(|t| t.next_id()).unwrap_or(0);
                let t0 = Instant::now();
                let resp = match tracer {
                    Some(_) => client.get(&format!("{}{}", pool.target, tag(rid, http_id))),
                    None => client.get(&pool.target),
                };
                let t1 = Instant::now();
                if let Some(t) = tracer {
                    t.record(http_id, op_id, rid, "http.client", t0, t1);
                }
                let ok = match resp {
                    Ok(r) if r.status == 200 => {
                        tally.responses += 1;
                        tally.body_bytes += r.body.len() as u64;
                        tally.chunked += r.chunked as u64;
                        let key = (q, body_hash(&r.body));
                        if let Some(e) = tally.answers.get_mut(&key) {
                            e.1 += 1;
                            true
                        } else {
                            let answer = match ctx.seen.get(&key) {
                                Some(a) => Ok(*a),
                                None => {
                                    tally.parsed += 1;
                                    Answer::of_json(&r.body)
                                }
                            };
                            match answer {
                                Ok(a) => {
                                    tally.answers.insert(key, (a, 1));
                                    true
                                }
                                Err(_) => false,
                            }
                        }
                    }
                    Ok(_) => false,
                    Err(_) => {
                        // The connection is unusable after a transport
                        // error; carry on over a fresh one.
                        *client = connect(served.addr());
                        false
                    }
                };
                (ok, pool.class)
            }
            Part::Tiles { viewport, time_idx } => {
                let obda = served.obda.as_ref().expect("tile parts only on obda");
                let t0 = Instant::now();
                let r = obda
                    .tiles
                    .fetch_viewport(&ctx.inputs.viewports[viewport], time_idx);
                if let Some(t) = tracer {
                    t.record(t.next_id(), op_id, rid, "sdl.fetch", t0, Instant::now());
                }
                let ok = match r {
                    Ok(stats) => {
                        tally.tile_requests += stats.requests as u64;
                        tally.tile_hits += stats.cache_hits as u64;
                        stats.requests > 0
                    }
                    Err(_) => false,
                };
                (ok, TILES_CLASS)
            }
        };
        if let Some(t) = tracer {
            t.record(op_id, 0, rid, "op", op_start, Instant::now());
            tally.traced_ops.push(TracedOp { rid, class });
        }
        if !ok {
            tally.failed += 1;
            all_ok = false;
        }
    }
    all_ok
}

/// Warm-up: the given steps once, sequentially, over a connection that
/// is closed again before the measured phases (an idle keep-alive
/// connection would otherwise pin a server worker). Returns the digests
/// seen, so the measured phases parse each distinct body at most once.
pub fn warm_up(ctx: &Ctx, steps: &[Step]) -> (Seen, Tally) {
    let mut client = connect(ctx.served.addr());
    let mut tally = Tally::default();
    for step in steps {
        tally.steps += 1;
        run_step(ctx, &mut client, step, &mut tally, &mut None);
    }
    drop(client);
    let seen = tally.answers.iter().map(|(k, (a, _))| (*k, *a)).collect();
    (seen, tally)
}

/// Closed loop: `LOAD_CONNECTIONS` clients each send their next step as
/// soon as the previous one completes, until each has run `count` steps
/// or `cap` has passed (a guard against a much slower program; the
/// tally's `capped` says whether it ended the phase). Each client starts
/// at its own offset of the schedule, a whole number of mix periods
/// apart.
pub fn closed_loop(ctx: &Ctx, count: usize, cap: Duration, offset: usize) -> Tally {
    let steps = &ctx.inputs.steps;
    let barrier = Barrier::new(LOAD_CONNECTIONS);
    let started = std::sync::OnceLock::new();
    let mut total = Tally::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOAD_CONNECTIONS)
            .map(|c| {
                let (barrier, started) = (&barrier, &started);
                s.spawn(move || {
                    let mut client = connect(ctx.served.addr());
                    let mut tally = Tally::default();
                    let mut k = offset + c * steps.len() / LOAD_CONNECTIONS;
                    barrier.wait();
                    let start: Instant = *started.get_or_init(Instant::now);
                    let end = start + cap;
                    let mut done: Vec<(Instant, bool)> = Vec::new();
                    while done.len() < count {
                        if Instant::now() >= end {
                            tally.capped = true;
                            break;
                        }
                        let ok = run_step(
                            ctx,
                            &mut client,
                            &steps[k % steps.len()],
                            &mut tally,
                            &mut None,
                        );
                        k += 1;
                        // A step still running at the cap is not
                        // counted: throughput covers the window only.
                        let now = Instant::now();
                        if now <= end {
                            tally.steps += 1;
                            done.push((now, ok));
                        }
                    }
                    tally.group_rates =
                        window_rates(start, &done, ctx.inputs.workload.mix_period());
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("closed-loop thread"));
        }
    });
    total
}

/// Ok steps per second over every window of `period` consecutive
/// completions (`done`: completion time and success of each step of one
/// connection), windows starting every eighth of a period.
fn window_rates(start: Instant, done: &[(Instant, bool)], period: usize) -> Vec<f64> {
    let stride = (period / 8).max(1);
    (0..)
        .map(|i| i * stride)
        .take_while(|&from| from + period <= done.len())
        .map(|from| {
            let begin = if from == 0 { start } else { done[from - 1].0 };
            let end = done[from + period - 1].0;
            let ok = done[from..from + period].iter().filter(|d| d.1).count();
            ok as f64 / (end - begin).as_secs_f64().max(1e-9)
        })
        .collect()
}

/// Open loop: steps arrive on the seeded Poisson schedule of
/// [`Inputs::arrivals`] at `rate` per second for `duration`, served by
/// `LOAD_CONNECTIONS` clients. Arrival `k` of the
/// call is arrival `first + k` of the phase: it runs that step of the
/// schedule and is recorded under that index. Latency is
/// timed from each step's scheduled send time, so a stall counts against
/// every step queued behind it; the generator's own lateness is kept as
/// `lags_ns`.
pub fn open_loop(ctx: &Ctx, rate: f64, duration: Duration, first: usize) -> Tally {
    let steps = &ctx.inputs.steps;
    let n = (rate * duration.as_secs_f64()).round() as usize;
    let arrivals = ctx.inputs.arrivals(rate, first + n);
    let mut total = Tally::default();
    let barrier = Barrier::new(LOAD_CONNECTIONS);
    let started = std::sync::OnceLock::new();
    // Arrivals go to whichever connection is free first: the clients
    // form one FIFO, like the server's own admission queue.
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..LOAD_CONNECTIONS)
            .map(|_| {
                let (barrier, started, next, arrivals) = (&barrier, &started, &next, &arrivals);
                s.spawn(move || {
                    let mut client = connect(ctx.served.addr());
                    let mut tally = Tally::default();
                    barrier.wait();
                    let start: Instant =
                        *started.get_or_init(|| Instant::now() + Duration::from_millis(5));
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= n {
                            break;
                        }
                        let offset = arrivals[first + k] - arrivals[first];
                        let scheduled = start + Duration::from_secs_f64(offset);
                        if let Some(wait) = scheduled.checked_duration_since(Instant::now()) {
                            std::thread::sleep(wait);
                        }
                        tally.lags_ns.push(
                            Instant::now()
                                .saturating_duration_since(scheduled)
                                .as_nanos() as u64,
                        );
                        let mut rids = None;
                        run_step(
                            ctx,
                            &mut client,
                            &steps[(first + k) % steps.len()],
                            &mut tally,
                            &mut rids,
                        );
                        let latency_ns = scheduled.elapsed().as_nanos() as u64;
                        tally.latencies.push((first + k, latency_ns));
                        tally.steps += 1;
                        if let Some(rids) = rids {
                            tally.traced_steps.push(TracedStep { rids, latency_ns });
                        }
                    }
                    tally
                })
            })
            .collect();
        for h in handles {
            total.merge(h.join().expect("open-loop thread"));
        }
    });
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_rates_slide_over_whole_periods() {
        let start = Instant::now();
        let done: Vec<(Instant, bool)> = (1..=16)
            .map(|i| (start + Duration::from_millis(10 * i), i != 12))
            .collect();
        let rates = window_rates(start, &done, 8);
        // Windows start at steps 0..=8: nine of them, 80 ms each.
        assert_eq!(rates.len(), 9);
        assert!((rates[0] - 100.0).abs() < 1e-6);
        // Windows holding the failed step count 7 ok steps.
        assert!((rates[8] - 87.5).abs() < 1e-6);
    }
}
