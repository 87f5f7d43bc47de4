//! `gateway-mixed`: `sw-gateway` serving open-loop Poisson arrivals on
//! the wall clock.
//!
//! The harness is its own load generator (one thread): it sleeps to each
//! request's due instant, records how late it actually sent, and times
//! each request from its due instant, so a stall also charges the
//! requests queued behind it. Two phases run on fixed rates that never
//! depend on measured capacity, each on a freshly started gateway:
//!
//! * steady, at most about 40% of the capacity measured when the
//!   benchmark was defined: latency and the failed fraction;
//! * overload, about twice that capacity or more: goodput, the requests
//!   answered within their deadline per second of schedule.
//!
//! The database mixes lengths across the serving threshold, and is large
//! enough that the host lane's shard holds at least
//! `2 × MIN_SEQS_PER_WORKER` sequences, so the host pool runs multi-worker
//! searches rather than the inline path. Every served response must equal
//! the host engine's full-database scores, and every ticket must resolve
//! exactly once.

use crate::device::{insert_core_sim, insert_gpu_sim};
use crate::report::{median, percentile, process_cpu_s, RunResult};
use crate::tracer::Tracer;
use crate::{host_threads, timed_setups, Opts};
use cudasw_core::multi_gpu::shard_database;
use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams};
use gpu_sim::DeviceSpec;
use std::time::{Duration, Instant};
use sw_align::SwParams;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;
use sw_gateway::{Gateway, GatewayConfig, GatewayReport, LoadConfig, LoadProfile, Outcome};
use sw_serve::{AdmissionConfig, BatchPolicy, SearchRequest};
use sw_simd::{
    search_protected, search_sequences, CancelToken, PoolConfig, Precision, QueryEngine,
    MIN_SEQS_PER_WORKER,
};

/// Steady-phase arrival rate, requests per second. Overload goodput on
/// the 2-thread reference host measured 115–225 q/s when the benchmark
/// was defined; the host's speed moves with its neighbours' load.
pub const STEADY_QPS: f64 = 50.0;

/// Overload-phase arrival rate, requests per second: 1.8 times the
/// capacity at the fast end of that range, 3.5 times it at the slow end.
pub const OVERLOAD_QPS: f64 = 400.0;

/// Share of the measurement window spent in the steady phase.
const STEADY_SHARE: f64 = 2.0 / 3.0;

/// gpu-sim device lanes; the host SIMD lane holds the other shard. One
/// of each keeps the gateway's busy threads near two, the hardware
/// thread count of the reference host.
const DEVICES: usize = 1;

/// Database size: the host lane's shard is `DB_SEQS / (DEVICES + 1)`.
const DB_SEQS: usize = 120;
const _: () = assert!(DB_SEQS / (DEVICES + 1) >= 2 * MIN_SEQS_PER_WORKER);

/// Subject lengths, evenly spaced over this range, straddle the serving
/// threshold of 100.
const DB_LENS: (usize, usize) = (20, 150);

/// Query lengths and deadline slack (wall seconds), as in `repro serve-rt`.
const QUERY_LENS: (usize, usize) = (16, 32);
const DEADLINE_SLACK: (f64, f64) = (0.25, 0.5);

/// Requests served one at a time after start-up. Every wave reaches
/// every lane, so one request stages the device shard before
/// measurement begins; more would make `setup_s` time serving rather
/// than set-up.
const WARMUP: u64 = 1;

/// Repetitions of each lane probe; the probe reports the median.
const PROBE_REPS: usize = 20;

/// Query length of the lane probes' stand-alone host searches.
const PROBE_QUERY_LEN: usize = 24;

/// Serving threshold and small inter-task blocks (as in `repro serve-rt`)
/// so the mixed-length database loads both kernels on every shard.
fn search_config() -> CudaSwConfig {
    CudaSwConfig {
        threshold: 100,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        ..CudaSwConfig::improved()
    }
}

/// Admission and batching bound the queue so that, at capacity, queueing
/// stays inside the deadline slack: overload is then answered by shedding
/// rather than by serving everything late.
fn gateway_config() -> GatewayConfig {
    GatewayConfig {
        devices: DEVICES,
        host_threads: host_threads(),
        admission: AdmissionConfig {
            queue_capacity: 16,
            tenant_quota: 16,
        },
        batch: BatchPolicy {
            max_wave: 8,
            ..BatchPolicy::default()
        },
        search: search_config(),
        shed_expired: true,
        max_inflight_waves: 2,
        drain_grace_seconds: 30.0,
        ..GatewayConfig::default()
    }
}

/// The serving database. The seed draws the residues; the lengths are
/// fixed so that the work per request does not change with the seed.
fn database(seed: u64) -> Database {
    let (lo, hi) = DB_LENS;
    let lengths: Vec<usize> = (0..DB_SEQS)
        .map(|i| lo + i * (hi - lo) / (DB_SEQS - 1))
        .collect();
    database_with_lengths("gateway-mixed", &lengths, seed)
}

/// A Poisson schedule at `rate` covering `seconds` of arrivals.
fn schedule(rate: f64, seconds: f64, seed: u64) -> Vec<SearchRequest> {
    LoadConfig {
        profile: LoadProfile::Steady,
        requests: (rate * seconds * 1.5) as usize + 16,
        tenants: vec!["tenant-a".into(), "tenant-b".into(), "tenant-c".into()],
        mean_interarrival_seconds: 1.0 / rate,
        query_len: QUERY_LENS,
        deadline_slack_seconds: DEADLINE_SLACK,
        param_classes: vec![SwParams::cudasw_default()],
        seed,
        ..LoadConfig::small(0, seed)
    }
    .schedule()
    .into_iter()
    .filter(|r| r.arrival_seconds < seconds)
    .collect()
}

/// Start a gateway and serve the warm-up requests one by one.
fn start(db: &Database, tracer: &mut Tracer) -> Gateway {
    let gw = tracer.time("Gateway::start", "sw-gateway", || {
        Gateway::start(&DeviceSpec::tesla_c2050(), &gateway_config(), db, &[])
    });
    for i in 0..WARMUP {
        let req = SearchRequest {
            // Far above any schedule id: ids must be unique per gateway.
            id: u64::MAX - i,
            tenant: "warmup".into(),
            query: make_query(PROBE_QUERY_LEN, i),
            params: SwParams::cudasw_default(),
            arrival_seconds: 0.0,
            deadline_seconds: 10.0,
        };
        tracer.time("warmup", "sw-gateway", || gw.submit(req).wait());
    }
    gw
}

/// One phase's outcomes, in schedule order.
struct Phase {
    /// Schedule seconds the phase covers.
    seconds: f64,
    /// Send instant minus due instant, seconds.
    lateness: Vec<f64>,
    /// Duration of each `submit` call, seconds.
    submit: Vec<f64>,
    /// Due-to-response seconds; infinite for a shed or aborted request.
    latency: Vec<f64>,
    /// Answered within the deadline.
    on_time: Vec<bool>,
    /// Schedule index and scores of every served request.
    served: Vec<(usize, Vec<i32>)>,
    /// CPU seconds the process used from the first send to the end of
    /// shutdown: the gateway's threads, plus the idle load generator.
    cpu_s: f64,
    report: GatewayReport,
}

/// Replay `sched` open-loop against `gw`, resolve every ticket, then
/// shut the gateway down. Exactly-once violations fail `res`.
fn run_phase(
    name: &str,
    gw: Gateway,
    sched: &[SearchRequest],
    seconds: f64,
    tracer: &mut Tracer,
    res: &mut RunResult,
) -> Phase {
    let span = tracer.begin(name, "perfbench");
    let handle = gw.handle();
    let mut p = Phase {
        seconds,
        lateness: Vec::with_capacity(sched.len()),
        submit: Vec::with_capacity(sched.len()),
        latency: Vec::with_capacity(sched.len()),
        on_time: Vec::with_capacity(sched.len()),
        served: Vec::new(),
        cpu_s: 0.0,
        report: GatewayReport::default(),
    };
    let cpu_before = process_cpu_s();
    let base = Instant::now();
    let mut tickets = Vec::with_capacity(sched.len());
    for req in sched {
        let due = base + Duration::from_secs_f64(req.arrival_seconds);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        p.lateness
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        let (ticket, secs) = tracer.timed("submit", "sw-gateway", || handle.submit(req.clone()));
        p.submit.push(secs);
        tickets.push(ticket);
    }
    for (i, ticket) in tickets.into_iter().enumerate() {
        let id = ticket.id();
        let (outcome, extra) =
            tracer.time("wait", "sw-gateway", || ticket.wait_counting_duplicates());
        if extra > 0 || id != sched[i].id {
            res.fail(format!("{name}: request {id} resolved {} times", 1 + extra));
        }
        match outcome {
            Outcome::Served(r) => {
                if r.id != id {
                    res.fail(format!("{name}: ticket {id} answered for request {}", r.id));
                }
                p.on_time.push(!r.deadline_missed);
                p.latency.push(p.lateness[i] + r.latency_seconds);
                p.served.push((i, r.scores));
            }
            Outcome::Shed(_) | Outcome::Aborted => {
                p.on_time.push(false);
                p.latency.push(f64::INFINITY);
            }
        }
    }
    drop(handle);
    p.report = tracer.time("shutdown", "sw-gateway", || gw.shutdown());
    p.cpu_s = process_cpu_s() - cpu_before;
    tracer.end(span);
    let offered = p.report.offered();
    if offered != sched.len() + WARMUP as usize {
        res.fail(format!(
            "{name}: {offered} requests resolved, {} submitted",
            sched.len() + WARMUP as usize
        ));
    }
    let dups = p
        .report
        .metrics
        .counter("cudasw.gateway.duplicate_commits", &[]);
    if dups != 0.0 {
        res.fail(format!("{name}: {dups} duplicate commits"));
    }
    p
}

impl Phase {
    fn good(&self) -> usize {
        self.on_time.iter().filter(|&&ok| ok).count()
    }

    /// Median over the phase's whole seconds of schedule of the requests
    /// due in that second and answered in time: a rate that one stalled
    /// second does not move.
    fn goodput(&self, sched: &[SearchRequest]) -> f64 {
        let windows = (self.seconds.floor() as usize).max(1);
        let mut good = vec![0.0; windows];
        for (req, &ok) in sched.iter().zip(&self.on_time) {
            let w = req.arrival_seconds as usize;
            if ok && w < windows {
                good[w] += 1.0;
            }
        }
        median(&good)
    }
}

/// Every served response must equal the host engine's full-database
/// scores for its query.
fn verify(
    db: &Database,
    sched: &[SearchRequest],
    p: &Phase,
    tracer: &mut Tracer,
    res: &mut RunResult,
) {
    tracer.time("verify", "sw-simd", || {
        for (i, scores) in &p.served {
            let req = &sched[*i];
            let engine = QueryEngine::new(req.params.clone(), &req.query);
            let want = search_sequences(&engine, db.sequences(), 1, Precision::Adaptive).scores;
            if *scores != want {
                res.fail(format!(
                    "request {}: served scores differ from the host engine",
                    req.id
                ));
            }
        }
    });
}

/// The host lane's calls on a gateway-sized host shard: one
/// `QueryEngine::new` plus one `search_protected` per query, at the
/// hardware thread count. Medians over [`PROBE_REPS`] waves.
pub struct HostProbe {
    pub wave_ms: f64,
    pub search_ms: f64,
    pub profile_build_us: f64,
}

pub fn host_probe(seed: u64, wave: usize, tracer: &mut Tracer) -> HostProbe {
    let shards = shard_database(&database(seed), DEVICES + 1);
    let shard = shards[DEVICES].sequences();
    let queries: Vec<Vec<u8>> = (0..wave as u64)
        .map(|i| make_query(PROBE_QUERY_LEN, seed ^ (0x9B0B << 16) ^ i))
        .collect();
    let cfg = PoolConfig::new(host_threads(), Precision::Adaptive).with_cancel(CancelToken::new());
    let (mut waves, mut searches, mut builds) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..PROBE_REPS {
        let span = tracer.begin("host_wave", "probe");
        let t = Instant::now();
        for q in &queries {
            let (engine, b) = tracer.timed("QueryEngine::new", "sw-simd", || {
                QueryEngine::new(SwParams::cudasw_default(), q)
            });
            let (_, s) = tracer.timed("search_protected", "sw-simd", || {
                search_protected(&engine, shard, &cfg)
            });
            builds.push(b * 1.0e6);
            searches.push(s * 1.0e3);
        }
        waves.push(t.elapsed().as_secs_f64() * 1.0e3);
        tracer.end(span);
    }
    HostProbe {
        wave_ms: median(&waves),
        search_ms: median(&searches),
        profile_build_us: median(&builds),
    }
}

/// The device lane's calls on shard 0: stage once, then `search_staged`
/// per query of a `wave`-request wave. Fills the core and gpu-sim
/// per-layer metrics from the first wave and returns the median wave ms.
fn device_probe(
    db: &Database,
    queries: &[Vec<u8>],
    tracer: &mut Tracer,
    res: &mut RunResult,
) -> f64 {
    let shard = shard_database(db, DEVICES + 1).swap_remove(0);
    let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), search_config());
    let (staged, stage_s) = tracer.timed("stage_database", "cudasw-core", || {
        driver
            .stage_database(&shard)
            .expect("a fault-free C2050 holds a gateway shard")
    });
    let (mut waves, mut searches) = (Vec::new(), Vec::new());
    for rep in 0..PROBE_REPS {
        let span = tracer.begin("device_wave", "probe");
        let t = Instant::now();
        let (results, recorded) = obs::capture(|| {
            queries
                .iter()
                .map(|q| {
                    let (r, s) = tracer.timed("search_staged", "cudasw-core", || {
                        driver.search_staged(q, &staged)
                    });
                    searches.push(s);
                    r
                })
                .collect::<Vec<_>>()
        });
        waves.push(t.elapsed().as_secs_f64() * 1.0e3);
        tracer.end(span);
        if rep == 0 {
            let l = &mut res.per_layer;
            if let Some(Ok(first)) = results.first() {
                insert_core_sim(l, first);
                let (cells, sim_s): (u64, f64) =
                    results.iter().flatten().fold((0, 0.0), |(c, s), r| {
                        (c + r.total_cells(), s + r.kernel_seconds())
                    });
                l.insert("core.sim_gcups", cells as f64 / sim_s / 1.0e9);
                l.insert(
                    "core.sim_host_ns_per_cell",
                    median(&searches) * 1.0e9 / first.total_cells().max(1) as f64,
                );
            }
            insert_gpu_sim(l, &recorded.metrics);
        }
        if results.iter().any(Result::is_err) {
            res.fail("device probe: search_staged failed on a fault-free device".into());
        }
    }
    res.per_layer.insert("core.stage_wall_s", stage_s);
    res.per_layer
        .insert("core.search_wall_s", median(&searches));
    median(&waves)
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::new();
    let seed = opts.seed;
    // Untraced: steady then overload. Traced: an untraced steady phase
    // (the overhead baseline), a traced steady phase, a traced overload
    // phase, then the lane probes.
    let (steady_s, overload_s) = if opts.trace {
        (opts.seconds / 3.0, opts.seconds / 3.0)
    } else {
        (
            opts.seconds * STEADY_SHARE,
            opts.seconds * (1.0 - STEADY_SHARE),
        )
    };
    // Set-up generates every input (database and both schedules) and
    // starts the gateway.
    let mut gen_s = Vec::new();
    let ((db, steady_sched, overload_sched, gw), setup_s) = timed_setups(|| {
        let span = tracer.begin("setup", "perfbench");
        let (db, g) = tracer.timed("generate", "sw-db", || database(seed));
        gen_s.push(g);
        let steady_sched = tracer.time("schedule", "sw-gateway", || {
            schedule(STEADY_QPS, steady_s, seed)
        });
        let overload_sched = tracer.time("schedule", "sw-gateway", || {
            schedule(OVERLOAD_QPS, overload_s, seed ^ 0x0F)
        });
        let gw = start(&db, tracer);
        tracer.end(span);
        (db, steady_sched, overload_sched, gw)
    });

    let (baseline, gw) = if opts.trace {
        let mut quiet = Tracer::new(false);
        let p = run_phase(
            "steady-untraced",
            gw,
            &steady_sched,
            steady_s,
            &mut quiet,
            &mut res,
        );
        verify(&db, &steady_sched, &p, &mut quiet, &mut res);
        (Some(p), start(&db, tracer))
    } else {
        (None, gw)
    };
    let steady = run_phase("steady", gw, &steady_sched, steady_s, tracer, &mut res);
    let gw = start(&db, tracer);
    let overload = run_phase(
        "overload",
        gw,
        &overload_sched,
        overload_s,
        tracer,
        &mut res,
    );
    verify(&db, &steady_sched, &steady, tracer, &mut res);
    verify(&db, &overload_sched, &overload, tracer, &mut res);

    let attempted = steady.latency.len();
    let failed = attempted - steady.good();
    res.attempted = attempted as u64;
    res.failed = failed as u64;
    let p50 = median(&steady.latency);
    let goodput = overload.goodput(&overload_sched);

    if opts.trace {
        let reports = [&steady.report, &overload.report];
        let sum = |name: &str| -> f64 {
            reports
                .iter()
                .map(|r| r.metrics.counter_sum(name, &[]))
                .sum()
        };
        let waves = sum("cudasw.serve.waves");
        let wave_size = steady
            .report
            .metrics
            .counter_sum("cudasw.serve.wave_requests", &[])
            / steady.report.waves.max(1) as f64;
        let w = (wave_size.round() as usize).max(1);
        let probe_queries: Vec<Vec<u8>> = steady_sched
            .iter()
            .take(w)
            .map(|r| r.query.clone())
            .collect();
        let device_ms = device_probe(&db, &probe_queries, tracer, &mut res);
        let host = host_probe(seed, w, tracer);
        let base = baseline
            .as_ref()
            .expect("traced runs measure a baseline phase");
        let l = &mut res.per_layer;
        l.insert("db.generate_s", median(&gen_s));
        l.insert("serve.admitted", sum("cudasw.serve.admitted"));
        l.insert("serve.shed", sum("cudasw.serve.shed"));
        l.insert("serve.waves", waves);
        l.insert(
            "serve.wave_size_mean",
            sum("cudasw.serve.wave_requests") / waves.max(1.0),
        );
        l.insert("simd.profile_build_us", host.profile_build_us);
        l.insert("simd.small_search_ms", host.search_ms);
        l.insert("gateway.submit_us", median(&steady.submit) * 1.0e6);
        l.insert("gateway.device_wave_ms", device_ms);
        l.insert("gateway.host_wave_ms", host.wave_ms);
        l.insert(
            "gateway.residual_ms",
            p50 * 1.0e3 - device_ms.max(host.wave_ms),
        );
        l.insert(
            "gateway.gen_late_ms_p99",
            percentile(&steady.lateness, 99.0) * 1.0e3,
        );
        l.insert(
            "gateway.owed_to_host",
            reports.iter().map(|r| r.owed_to_host as f64).sum(),
        );
        l.insert("gateway.degraded_frac", steady.report.degraded_rate());
        l.insert("obs.trace_overhead_frac", p50 / median(&base.latency) - 1.0);
    } else {
        let e = &mut res.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("ok_frac", steady.good() as f64 / attempted.max(1) as f64);
        e.insert(
            "cpu_ms_per_op",
            steady.cpu_s * 1.0e3 / attempted.max(1) as f64,
        );
    }
    res.note("p50_ms", p50 * 1.0e3, "ms", "wall");
    res.note("steady_qps_offered", STEADY_QPS, "1/s", "wall");
    res.note("steady_samples", attempted as f64, "count", "-");
    res.note(
        "p99_ms",
        percentile(&steady.latency, 99.0) * 1.0e3,
        "ms",
        "wall",
    );
    res.note(
        "failed_frac",
        failed as f64 / attempted.max(1) as f64,
        "frac",
        "-",
    );
    res.note(
        "gen_late_ms_p99",
        percentile(&steady.lateness, 99.0) * 1.0e3,
        "ms",
        "wall",
    );
    res.note("overload_qps_offered", OVERLOAD_QPS, "1/s", "wall");
    res.note(
        "overload_samples",
        overload.latency.len() as f64,
        "count",
        "-",
    );
    res.note(
        "overload_shed",
        overload.report.sheds.len() as f64,
        "count",
        "-",
    );
    res.note("goodput_qps", goodput, "1/s", "wall");
    res
}
