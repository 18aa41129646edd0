//! One benchmark run: set-up, warm-up, the measured phases, the answer
//! checks and the metrics.

use crate::check::{repair_poi_ids, Answer, Reference, Verdict};
use crate::drive::{closed_loop, open_loop, warm_up, Ctx, Tally, TILES_CLASS};
use crate::idle::IdleSpin;
use crate::inputs::{lai_table, lai_table_mapping, Inputs, Part, Step, Workload, CLOSED_LOOP_RATE};
use crate::report::{
    cpu_steal, json_num, mean, median_f64, peak_rss_mb, percentile, prometheus_sum, trimmed_mean,
    windowed_percentile, Metrics,
};
use crate::serve::{setup, Backend, Served};
use crate::trace::{self_times, Tracer};
use applab_bench::httpload::HttpClient;
use applab_dap::transport::Transport;
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, and more while
/// they have taken less than `SETUP_MIN_SECS` in all (the OBDA set-up
/// takes milliseconds). `setup_s` is their trimmed mean.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 501;
/// Least samples per window of the latency percentiles (see
/// [`windowed_percentile`]): p99 needs 1000 to have ten beyond it.
const P50_MIN_WINDOW: usize = 100;
const P99_MIN_WINDOW: usize = 1000;
/// Obda steps run during warm-up: enough to include one Bois outline and
/// one Listing 1 step.
const OBDA_WARM_STEPS: usize = 40;
/// The measured phases run in this many rounds of a capacity slice and
/// a latency slice, so that each metric samples the host over the whole
/// run rather than one stretch of it.
const ROUNDS: usize = 6;
/// A closed-loop slice runs a fixed number of steps; it stops early only
/// past this many times the time they take at [`CLOSED_LOOP_RATE`].
const CAP_FACTOR: f64 = 4.0;
/// Steps of the single-connection DAP accounting replay.
const DAP_REPLAY_STEPS: usize = 64;
/// Distinct queries re-run in-process for the per-query statistics.
const OFFLINE_SAMPLE: usize = 48;

/// What a run reports.
pub struct RunOutput {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
    /// Extra lines (report, sample counts) printed before the result.
    pub notes: Vec<String>,
}

fn warm_steps(inputs: &Inputs) -> Vec<Step> {
    match inputs.workload {
        Workload::ObdaViewport => inputs.steps.iter().take(OBDA_WARM_STEPS).cloned().collect(),
        _ => (0..inputs.queries.len())
            .map(|q| Step {
                parts: vec![Part::Query(q)],
                gap_ms: 0,
            })
            .collect(),
    }
}

/// Compare every distinct served answer with the reference answer.
pub fn check_answers(inputs: &Inputs, tallies: &[&Tally]) -> (Verdict, Vec<String>) {
    let mut tables: Vec<_> = inputs
        .tables
        .iter()
        .map(|(t, d)| (t.clone(), d.to_string()))
        .collect();
    if let Some(lai) = &inputs.lai {
        tables.push((lai_table(lai), lai_table_mapping()));
    }
    let reference = Reference::build(&tables);
    let mut served: Vec<usize> = tallies
        .iter()
        .flat_map(|t| t.answers.keys().map(|k| k.0))
        .collect();
    served.sort_unstable();
    served.dedup();
    // The load is over: the oracle may use both cores.
    let expected: HashMap<usize, Answer> = std::thread::scope(|s| {
        let halves: Vec<_> = served
            .chunks(served.len().div_ceil(2).max(1))
            .map(|chunk| {
                let reference = &reference;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|&q| {
                            let a = reference
                                .answer(&inputs.queries[q].sparql)
                                .expect("reference evaluates every pool query");
                            (q, a)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        halves
            .into_iter()
            .flat_map(|h| h.join().expect("reference thread"))
            .collect()
    });
    let mut repaired: Option<Option<Reference>> = None;
    let mut verdict = Verdict::default();
    let mut notes = Vec::new();
    let cross = inputs.workload.endpoint() != "store";
    for tally in tallies {
        for (&(q, _), &(answer, n)) in &tally.answers {
            let pool = &inputs.queries[q];
            let exp = expected[&q];
            if answer == exp {
                verdict.matched += n;
                continue;
            }
            verdict.mismatched += n;
            if cross {
                verdict.cross_backend += n;
            }
            let repaired = repaired.get_or_insert_with(|| {
                let osm = tables
                    .iter()
                    .position(|(t, _)| t.name == "osm")
                    .expect("osm table");
                repair_poi_ids(&tables[osm].0).map(|fixed| {
                    let mut t = tables.clone();
                    t[osm].0 = fixed;
                    Reference::build(&t)
                })
            });
            let known = repaired
                .as_ref()
                .and_then(|r| r.answer(&pool.sparql).ok())
                .is_some_and(|a| a == answer);
            if known {
                verdict.known_defect += n;
            }
            notes.push(format!(
                "{{\"mismatch\": {{\"class\": \"{}\", \"query\": {q}, \"responses\": {n}, \
                 \"rows_served\": {}, \"rows_expected\": {}, \"known_defect\": {known}}}}}",
                pool.class, answer.rows, exp.rows
            ));
        }
    }
    notes.sort();
    (verdict, notes)
}

fn closed_loop_cap(steps: usize) -> Duration {
    Duration::from_secs_f64(CAP_FACTOR * steps as f64 / CLOSED_LOOP_RATE)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// The untraced run: end-to-end metrics.
pub fn untraced(inputs: &Inputs, seconds: f64) -> RunOutput {
    // Every timed part runs with the CPUs kept awake.
    let spin = IdleSpin::start();
    let idle_spinners = spin.active;
    // The served set-up comes first; the other set-ups of the median run
    // after the peak RSS is read, so their garbage never counts in it.
    let (served, first) = setup(inputs, None);
    let mut setup_s = vec![first.total];
    let next_rid = AtomicU64::new(1);
    let empty = HashMap::new();
    let ctx = Ctx {
        inputs,
        served: &served,
        tracer: None,
        seen: &empty,
        next_rid: &next_rid,
    };
    let (seen, warm) = warm_up(&ctx, &warm_steps(inputs));
    let ctx = Ctx { seen: &seen, ..ctx };
    let steal_before = cpu_steal();
    let share = inputs.workload.capacity_share();
    let rounds = ROUNDS as f64;
    let cap_steps = inputs.workload.closed_loop_steps(seconds * share / rounds);
    let cap_limit = closed_loop_cap(cap_steps);
    let lat_slice = Duration::from_secs_f64(seconds * (1.0 - share) / rounds);
    let (mut cap, mut lat) = (Tally::default(), Tally::default());
    for round in 0..ROUNDS {
        cap.merge(closed_loop(&ctx, cap_steps, cap_limit, round * cap_steps));
        let first = lat.steps as usize;
        lat.merge(open_loop(
            &ctx,
            inputs.workload.offered_rate(),
            lat_slice,
            first,
        ));
    }
    let rss = peak_rss_mb();
    let steal_after = cpu_steal();
    let steal_share =
        (steal_after.0 - steal_before.0) as f64 / (steal_after.1 - steal_before.1).max(1) as f64;
    served.http.shutdown();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.iter().sum::<f64>() < SETUP_MIN_SECS && setup_s.len() < SETUP_MAX_REPS)
    {
        let (s, t) = setup(inputs, None);
        setup_s.push(t.total);
        s.http.shutdown();
    }
    drop(spin);
    let check_started = Instant::now();
    let (verdict, mut notes) = check_answers(inputs, &[&warm, &cap, &lat]);
    let check_s = check_started.elapsed().as_secs_f64();
    let attempted = warm.attempted + cap.attempted + lat.attempted;
    let wire_failed = warm.failed + cap.failed + lat.failed;
    let failed = wire_failed + verdict.mismatched;

    let mut m = Metrics::default();
    m.put("throughput_qps", cap.throughput(), "1/s");
    let (p50, p50_windows) = windowed_percentile(&lat.latencies, 0.50, P50_MIN_WINDOW);
    let (p99, p99_windows) = windowed_percentile(&lat.latencies, 0.99, P99_MIN_WINDOW);
    m.put("latency_p50_ms", ms(p50), "ms");
    m.put("latency_p99_ms", ms(p99), "ms");
    m.put("setup_s", trimmed_mean(&setup_s), "s");
    m.put("peak_rss_mb", rss, "MB");
    notes.push(format!(
        "{{\"report\": {{\"error_rate\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"wire_failed\": {wire_failed}, \"mismatched\": {}, \"known_defect_mismatches\": {}, \
         \"cross_backend_mismatches\": {}, \"capacity_steps\": {}, \"capacity_capped\": {}, \"latency_samples\": {}, \"p50_windows\": {p50_windows}, \"p99_windows\": {p99_windows}, \"steal_share\": {steal_share}, \
         \"idle_spinners\": {idle_spinners}, \"offered_rate\": {}, \"achieved_rate\": {}, \"loadgen_lag_ms_p99\": {}, \
         \"setup_reps\": {}, \"bodies_parsed_under_load\": {}, \"check_s\": {check_s}}}}}",
        json_num(failed as f64 / attempted.max(1) as f64),
        verdict.mismatched,
        verdict.known_defect,
        verdict.cross_backend,
        cap.steps,
        cap.capped,
        lat.latencies.len(),
        inputs.workload.offered_rate(),
        lat.steps as f64 / (seconds * (1.0 - share)),
        ms(percentile(&lat.lags_ns, 0.99)),
        setup_s.len(),
        cap.parsed + lat.parsed,
    ));
    RunOutput {
        correct: verdict.correct() && wire_failed == 0,
        attempted,
        failed,
        metrics: m,
        notes,
    }
}

/// Classes whose SPARQL evaluation is timed per class on the store.
pub const STORE_CLASSES: [&str; 7] = [
    "NonTopological_Area",
    "NonTopological_Envelope",
    "Selection_Intersects_Small",
    "Selection_Intersects_Large",
    "Selection_Within_Attribute",
    "Join_Parks_LandCover",
    "Aggregation_CountPerClass",
];
/// Classes served by the OBDA endpoint.
pub const OBDA_CLASSES: [&str; 3] = ["Viewport_LAI", "Listing1_Bois", "Outline_Bois"];

/// Every per-layer metric, in print order, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = vec![
        ("http.overhead_us".into(), "us"),
        ("http.response_kib".into(), "KiB"),
        ("http.chunked_share".into(), "ratio"),
        ("service.queue_wait_us".into(), "us"),
        ("service.rejected".into(), "count"),
        ("endpoint.busy_ms_p50".into(), "ms"),
        ("endpoint.busy_ms_p99".into(), "ms"),
        ("sparql.parse_us".into(), "us"),
        ("sparql.peak_batch_kib".into(), "KiB"),
    ];
    for c in STORE_CLASSES {
        v.push((format!("sparql.eval_ms.{c}"), "ms"));
    }
    for c in STORE_CLASSES.iter().chain(OBDA_CLASSES.iter()) {
        v.push((format!("sparql.serialize_ms.{c}"), "ms"));
        v.push((format!("sparql.rows_out.{c}"), "count"));
    }
    v.extend([
        ("store.rows_scanned_per_row_out".into(), "ratio"),
        ("store.scans_per_query".into(), "count"),
        ("store.spatial_pushdowns_per_query".into(), "count"),
        ("store.load_s".into(), "s"),
        ("store.triples".into(), "count"),
        ("geotriples.transform_s".into(), "s"),
        ("obda.eval_ms.viewport".into(), "ms"),
        ("obda.eval_ms.listing1".into(), "ms"),
        ("obda.eval_ms.outline".into(), "ms"),
        ("obda.source_queries_per_query".into(), "count"),
        ("obda.seal_s".into(), "s"),
        ("dap.round_trips_per_op".into(), "count"),
        ("dap.kib_per_op".into(), "KiB"),
        ("dap.window_hit_ratio".into(), "ratio"),
        ("sdl.fetch_ms".into(), "ms"),
        ("sdl.tile_hit_ratio".into(), "ratio"),
        ("selftime_us.http".into(), "us"),
        ("selftime_us.endpoint".into(), "us"),
        ("selftime_us.sparql_parse".into(), "us"),
        ("selftime_us.sparql_eval".into(), "us"),
        ("selftime_us.obda".into(), "us"),
        ("selftime_us.sdl".into(), "us"),
        ("loadgen.lag_ms_p99".into(), "ms"),
        ("trace.overhead_pct".into(), "%"),
        ("trace.unattributed_share".into(), "ratio"),
        ("check.cross_backend_mismatches".into(), "count"),
        ("check.error_rate".into(), "ratio"),
    ]);
    v
}

fn scrape(served: &Served) -> String {
    let mut c = HttpClient::connect(served.addr()).expect("connect for /metrics");
    c.get("/metrics").map(|r| r.text()).unwrap_or_default()
}

/// Per-query statistics from running a sample of the pool in-process
/// through `ApplabService::query` (its `QueryOutcome::stats`), plus the
/// time `QueryResults::write_json` takes on each answer.
struct Offline {
    serialize_ms: HashMap<&'static str, Vec<f64>>,
    rows_out: HashMap<&'static str, Vec<f64>>,
    parse_us: Vec<f64>,
    rows_scanned: u64,
    rows: u64,
    scans: Vec<f64>,
    pushdowns: Vec<f64>,
    source_queries: Vec<f64>,
    peak_batch_bytes: u64,
}

fn offline(inputs: &Inputs, served: &Served) -> Offline {
    let mut out = Offline {
        serialize_ms: HashMap::new(),
        rows_out: HashMap::new(),
        parse_us: Vec::new(),
        rows_scanned: 0,
        rows: 0,
        scans: Vec::new(),
        pushdowns: Vec::new(),
        source_queries: Vec::new(),
        peak_batch_bytes: 0,
    };
    // Every class, then an even spread over the rest of the pool.
    let mut sample: Vec<usize> = Vec::new();
    for class in inputs.classes() {
        if let Some(q) = inputs.queries.iter().position(|p| p.class == class) {
            sample.push(q);
        }
    }
    let stride = (inputs.queries.len() / OFFLINE_SAMPLE).max(1);
    sample.extend((0..inputs.queries.len()).step_by(stride));
    sample.sort_unstable();
    sample.dedup();
    let endpoint = inputs.workload.endpoint();
    for q in sample {
        let pool = &inputs.queries[q];
        let t0 = Instant::now();
        let parsed = applab_sparql::parse_query(&pool.sparql);
        out.parse_us.push(t0.elapsed().as_secs_f64() * 1e6);
        debug_assert!(parsed.is_ok());
        let outcome = served.service.query(endpoint, &pool.sparql);
        let Some(results) = outcome.results() else {
            continue;
        };
        let s = &outcome.stats;
        out.rows_scanned += s.rows_scanned;
        out.rows += results.len() as u64;
        out.scans.push(s.scans as f64);
        out.pushdowns.push(s.pushdowns as f64);
        out.source_queries.push(s.source_queries as f64);
        out.peak_batch_bytes = out.peak_batch_bytes.max(s.peak_batch_bytes);
        let mut times = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            results
                .write_json(&mut std::io::sink())
                .expect("serialize into a sink");
            times.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        out.serialize_ms
            .entry(pool.class)
            .or_default()
            .push(median_f64(&times));
        out.rows_out
            .entry(pool.class)
            .or_default()
            .push(results.len() as f64);
    }
    out
}

/// DAP round trips and bytes per part over one connection, replaying the
/// first steps of the schedule on a fresh set-up: deterministic for a
/// seed, so the counts repeat exactly.
pub struct DapReplay {
    /// `(class, round trips, bytes)` per part, in order.
    pub parts: Vec<(&'static str, u64, u64)>,
}

pub fn dap_replay(inputs: &Inputs, steps: usize) -> DapReplay {
    let (served, _) = setup(inputs, None);
    let obda = served.obda.as_ref().expect("obda workload");
    let mut client = HttpClient::connect(served.addr()).expect("connect replay client");
    let mut parts = Vec::new();
    for step in inputs.steps.iter().take(steps) {
        obda.clock.advance(Duration::from_millis(step.gap_ms));
        for part in &step.parts {
            let (trips, bytes) = (obda.transport.round_trips(), obda.transport.bytes());
            let class = match *part {
                Part::Query(q) => {
                    let r = client
                        .get(&inputs.queries[q].target)
                        .expect("replay request");
                    assert_eq!(r.status, 200, "replay request must succeed");
                    inputs.queries[q].class
                }
                Part::Tiles { viewport, time_idx } => {
                    obda.tiles
                        .fetch_viewport(&inputs.viewports[viewport], time_idx)
                        .expect("replay tiles");
                    TILES_CLASS
                }
            };
            parts.push((
                class,
                obda.transport.round_trips() - trips,
                obda.transport.bytes() - bytes,
            ));
        }
    }
    drop(client);
    served.http.shutdown();
    DapReplay { parts }
}

/// The traced run: per-layer metrics.
pub fn traced(inputs: &Inputs, seconds: f64) -> RunOutput {
    let spin = IdleSpin::start();
    let tracer = Arc::new(Tracer::new());
    let (served, times) = setup(inputs, Some(&tracer));
    let next_rid = AtomicU64::new(1);
    let empty = HashMap::new();
    let ctx = Ctx {
        inputs,
        served: &served,
        tracer: Some(&tracer),
        seen: &empty,
        next_rid: &next_rid,
    };
    let (seen, warm) = warm_up(&ctx, &warm_steps(inputs));
    let ctx = Ctx { seen: &seen, ..ctx };
    let before = scrape(&served);

    // Capacity with the tracer off and on, alternating, for the tracing
    // overhead; then the open loop traced.
    let slice = seconds * 0.125;
    let slice_steps = inputs.workload.closed_loop_steps(slice);
    let slice_cap = closed_loop_cap(slice_steps);
    let mut off = Vec::new();
    let mut on = Vec::new();
    let mut tallies = Vec::new();
    for i in 0..4 {
        let traced = i % 2 == 1;
        tracer.set_enabled(traced);
        let t = closed_loop(
            &ctx,
            slice_steps,
            slice_cap,
            i * 13 * inputs.workload.mix_period(),
        );
        if traced {
            on.push(t.throughput());
        } else {
            off.push(t.throughput());
        }
        tallies.push(t);
    }
    tracer.set_enabled(true);
    let lat = open_loop(
        &ctx,
        inputs.workload.offered_rate(),
        Duration::from_secs_f64(seconds * 0.5),
        0,
    );
    tracer.set_enabled(false);
    let after = scrape(&served);
    let spans = tracer.drain();

    let off_tp = mean(&off);
    let overhead_pct = (off_tp - mean(&on)) / off_tp.max(1e-9) * 100.0;
    let stats = offline(inputs, &served);
    let triples = match &served.backend {
        Backend::Store(wf) => wf.len() as f64,
        Backend::Obda(_) => 0.0,
    };
    served.http.shutdown();
    let replay = match inputs.workload {
        Workload::ObdaViewport => Some(dap_replay(inputs, DAP_REPLAY_STEPS)),
        _ => None,
    };
    drop(spin);

    let mut all: Vec<&Tally> = vec![&warm];
    all.extend(tallies.iter());
    all.push(&lat);
    let (verdict, notes) = check_answers(inputs, &all);
    let attempted: u64 = all.iter().map(|t| t.attempted).sum();
    let wire_failed: u64 = all.iter().map(|t| t.failed).sum();
    let failed = wire_failed + verdict.mismatched;
    let responses: u64 = all.iter().map(|t| t.responses).sum();
    let body_bytes: u64 = all.iter().map(|t| t.body_bytes).sum();
    let chunked: u64 = all.iter().map(|t| t.chunked).sum();
    let tile_requests: u64 = all.iter().map(|t| t.tile_requests).sum();
    let tile_hits: u64 = all.iter().map(|t| t.tile_hits).sum();

    // Span analysis.
    let class_of: HashMap<u64, &'static str> = all
        .iter()
        .flat_map(|t| t.traced_ops.iter())
        .map(|op| (op.rid, op.class))
        .collect();
    let selfs = self_times(&spans);
    let mut by_name: HashMap<&'static str, Vec<u64>> = HashMap::new();
    let mut self_by_name: HashMap<&'static str, u64> = HashMap::new();
    let mut by_class: HashMap<(&'static str, &'static str), Vec<f64>> = HashMap::new();
    let mut self_by_rid: HashMap<u64, u64> = HashMap::new();
    let ops = spans.iter().filter(|s| s.name == "op").count().max(1) as f64;
    for (s, self_ns) in &selfs {
        by_name.entry(s.name).or_default().push(s.duration_ns());
        *self_by_name.entry(s.name).or_default() += self_ns;
        if let Some(class) = class_of.get(&s.rid) {
            by_class
                .entry((s.name, class))
                .or_default()
                .push(ms(s.duration_ns()));
        }
        if s.name != "op" {
            *self_by_rid.entry(s.rid).or_default() += self_ns;
        }
    }
    let durations = |name: &str| by_name.get(name).cloned().unwrap_or_default();
    let mean_us = |name: &str| {
        let d = durations(name);
        d.iter().sum::<u64>() as f64 / d.len().max(1) as f64 / 1e3
    };
    let self_ns = |name: &str| self_by_name.get(name).copied().unwrap_or(0) as f64;
    // Self time per operation part, µs.
    let self_us = |name: &str| self_ns(name) / ops / 1e3;
    let class_median = |name: &'static str, class: &'static str| {
        median_f64(
            by_class
                .get(&(name, class))
                .map(Vec::as_slice)
                .unwrap_or(&[]),
        )
    };
    // Reconciliation over the traced open-loop steps: the part of the
    // measured latency no layer span covers.
    let (mut latency_sum, mut layer_sum) = (0u64, 0u64);
    for step in &lat.traced_steps {
        latency_sum += step.latency_ns;
        layer_sum += step
            .rids
            .clone()
            .map(|r| self_by_rid.get(&r).copied().unwrap_or(0))
            .sum::<u64>();
    }
    let unattributed = 1.0 - layer_sum as f64 / latency_sum.max(1) as f64;

    let mut values: HashMap<String, f64> = HashMap::new();
    let mut put = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    // Client round trip minus endpoint busy time, per request.
    let requests = durations("http.client").len().max(1) as f64;
    put("http.overhead_us", self_ns("http.client") / requests / 1e3);
    put(
        "http.response_kib",
        body_bytes as f64 / responses.max(1) as f64 / 1024.0,
    );
    put(
        "http.chunked_share",
        chunked as f64 / responses.max(1) as f64,
    );
    let wait_sum = prometheus_sum(&after, "applab_service_queue_wait_seconds_sum", "")
        - prometheus_sum(&before, "applab_service_queue_wait_seconds_sum", "");
    let wait_n = prometheus_sum(&after, "applab_service_queue_wait_seconds_count", "")
        - prometheus_sum(&before, "applab_service_queue_wait_seconds_count", "");
    put("service.queue_wait_us", wait_sum / wait_n.max(1.0) * 1e6);
    put(
        "service.rejected",
        prometheus_sum(
            &after,
            "applab_service_outcomes_total",
            "code=\"overloaded\"",
        ) - prometheus_sum(
            &before,
            "applab_service_outcomes_total",
            "code=\"overloaded\"",
        ),
    );
    let busy = durations("endpoint.query");
    put("endpoint.busy_ms_p50", ms(percentile(&busy, 0.50)));
    put("endpoint.busy_ms_p99", ms(percentile(&busy, 0.99)));
    put(
        "sparql.parse_us",
        if durations("sparql.parse").is_empty() {
            mean(&stats.parse_us)
        } else {
            mean_us("sparql.parse")
        },
    );
    put(
        "sparql.peak_batch_kib",
        stats.peak_batch_bytes as f64 / 1024.0,
    );
    for c in STORE_CLASSES {
        put(
            &format!("sparql.eval_ms.{c}"),
            class_median("sparql.eval", c),
        );
    }
    for c in STORE_CLASSES.iter().chain(OBDA_CLASSES.iter()) {
        let get = |m: &HashMap<&'static str, Vec<f64>>| {
            median_f64(m.get(c).map(Vec::as_slice).unwrap_or(&[]))
        };
        put(
            &format!("sparql.serialize_ms.{c}"),
            get(&stats.serialize_ms),
        );
        put(&format!("sparql.rows_out.{c}"), get(&stats.rows_out));
    }
    put(
        "store.rows_scanned_per_row_out",
        stats.rows_scanned as f64 / stats.rows.max(1) as f64,
    );
    put("store.scans_per_query", mean(&stats.scans));
    put("store.spatial_pushdowns_per_query", mean(&stats.pushdowns));
    put("store.load_s", times.load);
    put("store.triples", triples);
    put("geotriples.transform_s", times.transform);
    put(
        "obda.eval_ms.viewport",
        class_median("obda.query", "Viewport_LAI"),
    );
    put(
        "obda.eval_ms.listing1",
        class_median("obda.query", "Listing1_Bois"),
    );
    put(
        "obda.eval_ms.outline",
        class_median("obda.query", "Outline_Bois"),
    );
    put(
        "obda.source_queries_per_query",
        if inputs.workload == Workload::ObdaViewport {
            mean(&stats.source_queries)
        } else {
            0.0
        },
    );
    put("obda.seal_s", times.seal);
    if let Some(r) = &replay {
        let n = r.parts.len().max(1) as f64;
        put(
            "dap.round_trips_per_op",
            r.parts.iter().map(|p| p.1).sum::<u64>() as f64 / n,
        );
        put(
            "dap.kib_per_op",
            r.parts.iter().map(|p| p.2).sum::<u64>() as f64 / n / 1024.0,
        );
        let queries: Vec<_> = r.parts.iter().filter(|p| p.0 != TILES_CLASS).collect();
        put(
            "dap.window_hit_ratio",
            queries.iter().filter(|p| p.1 == 0).count() as f64 / queries.len().max(1) as f64,
        );
    }
    put("sdl.fetch_ms", ms(percentile(&durations("sdl.fetch"), 0.5)));
    put(
        "sdl.tile_hit_ratio",
        tile_hits as f64 / tile_requests.max(1) as f64,
    );
    put("selftime_us.http", self_us("http.client"));
    put("selftime_us.endpoint", self_us("endpoint.query"));
    put("selftime_us.sparql_parse", self_us("sparql.parse"));
    put("selftime_us.sparql_eval", self_us("sparql.eval"));
    put("selftime_us.obda", self_us("obda.query"));
    put("selftime_us.sdl", self_us("sdl.fetch"));
    put("loadgen.lag_ms_p99", ms(percentile(&lat.lags_ns, 0.99)));
    put("trace.overhead_pct", overhead_pct);
    put("trace.unattributed_share", unattributed);
    put(
        "check.cross_backend_mismatches",
        verdict.cross_backend as f64,
    );
    put("check.error_rate", failed as f64 / attempted.max(1) as f64);

    let mut m = Metrics::default();
    for (name, unit) in per_layer_names() {
        let v = values.get(&name).copied().unwrap_or(0.0);
        m.put(name, v, unit);
    }
    let mut notes = notes;
    notes.push(format!(
        "{{\"trace\": {{\"spans\": {}, \"traced_steps\": {}, \"untraced_qps\": {:?}, \
         \"traced_qps\": {:?}, \"capacity_capped\": {}}}}}",
        spans.len(),
        lat.traced_steps.len(),
        off,
        on,
        tallies.iter().any(|t| t.capped)
    ));
    RunOutput {
        correct: verdict.correct() && wire_failed == 0,
        attempted,
        failed,
        metrics: m,
        notes,
    }
}
