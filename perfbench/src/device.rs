//! `device-swissprot`: the paper's search on the simulated Tesla C2050.
//!
//! A Swissprot-shaped database plus the paper's eight extreme-tail
//! sequences is staged once with `stage_database`; Table II-length
//! queries then run back to back through `search_staged` with the shipped
//! `CudaSwConfig::improved()`. The tail puts both paper kernels under
//! load; nothing else (no pool, no serving stack) runs. Scores are
//! checked against the `sw-simd` engine.

use crate::report::{median, percentile, process_cpu_s, RunResult};
use crate::tracer::Tracer;
use crate::{host_threads, timed_setups, Opts};
use cudasw_core::{CudaSwConfig, CudaSwDriver, SearchResult, StagedDatabase};
use gpu_sim::DeviceSpec;
use obs::MetricsRegistry;
use std::time::{Duration, Instant};
use sw_align::SwParams;
use sw_db::catalog::PaperDb;
use sw_db::synth::{database_with_lengths, make_query, sample_lengths};
use sw_db::Database;
use sw_simd::{search_sequences, Precision, QueryEngine};

/// Swissprot-shaped sequences generated before the tail is appended.
const SWISSPROT_SEQS: usize = 1000;

/// Swissprot's extreme tail (titin and friends): the same eight lengths
/// `cudasw-bench`'s `workloads::paper_scale_lengths` appends to the
/// paper-scale Swissprot. They run on the intra-task kernel.
const TAIL: [usize; 8] = [
    35_213, 22_152, 18_141, 14_507, 13_100, 12_464, 11_103, 10_624,
];

/// Query length: the shortest Table II query. Even so one search costs
/// seconds of simulator time, almost all of it in the tail; every search
/// has the same length so that per-search latencies are comparable.
const QUERY_LEN: usize = 144;

/// Distinct queries, searched round-robin.
const QUERIES: u64 = 4;

struct Setup {
    db: Database,
    queries: Vec<Vec<u8>>,
    driver: CudaSwDriver,
    staged: StagedDatabase,
}

struct Search {
    query: usize,
    wall: f64,
    result: Result<SearchResult, gpu_sim::GpuError>,
    /// The program's counters for this search (traced runs only).
    counters: Option<MetricsRegistry>,
}

/// Seed of the Swissprot length sample. The length profile is part of
/// the workload's definition and stays fixed; the run seed draws the
/// residues and the queries, so seeds differ in content but not in the
/// amount of work per search.
const LENGTH_SEED: u64 = 2011;

/// `n` sequences with lengths drawn from `PaperDb::Swissprot`'s
/// log-normal fit, residues drawn from `seed`, plus `extra` lengths.
pub fn swissprot(name: &str, n: usize, extra: &[usize], seed: u64) -> Database {
    let mut lengths = sample_lengths(n, PaperDb::Swissprot.lognormal(), 20, 36_000, LENGTH_SEED);
    lengths.extend_from_slice(extra);
    database_with_lengths(name, &lengths, seed)
}

/// Search round-robin for `seconds` of wall time (at least once).
fn measure(s: &mut Setup, tracer: &mut Tracer, seconds: f64) -> Vec<Search> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let traced = tracer.enabled();
    let mut out = Vec::new();
    while out.is_empty() || Instant::now() < end {
        let query = out.len() % s.queries.len();
        let (driver, staged, q) = (&mut s.driver, &s.staged, &s.queries[query]);
        let ((result, counters), wall) = tracer.timed("search_staged", "cudasw-core", || {
            if traced {
                let (r, recorded) = obs::capture(|| driver.search_staged(q, staged));
                (r, Some(recorded.metrics))
            } else {
                (driver.search_staged(q, staged), None)
            }
        });
        out.push(Search {
            query,
            wall,
            result,
            counters,
        });
    }
    out
}

/// Compare every search's scores with the `sw-simd` engine's.
fn verify(s: &Setup, searches: &[Search], tracer: &mut Tracer, res: &mut RunResult) {
    let params = SwParams::cudasw_default();
    let expected: Vec<Vec<i32>> = tracer.time("verify", "sw-simd", || {
        s.queries
            .iter()
            .map(|q| {
                let engine = QueryEngine::new(params.clone(), q);
                search_sequences(
                    &engine,
                    s.db.sequences(),
                    host_threads(),
                    Precision::Adaptive,
                )
                .scores
            })
            .collect()
    });
    for (i, search) in searches.iter().enumerate() {
        match &search.result {
            Ok(r) if r.scores != expected[search.query] => {
                let at = (0..r.scores.len())
                    .find(|&k| r.scores.get(k) != expected[search.query].get(k))
                    .unwrap_or(0);
                res.fail(format!(
                    "search {i} (query {}): sequence {at} scored {:?}, engine {:?}",
                    search.query,
                    r.scores.get(at),
                    expected[search.query].get(at)
                ));
            }
            _ => {}
        }
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::new();
    let (mut gen_s, mut stage_s) = (Vec::new(), Vec::new());
    let (mut s, setup_s) = timed_setups(|| {
        let span = tracer.begin("setup", "perfbench");
        let (db, g) = tracer.timed("generate", "sw-db", || {
            swissprot("device-swissprot", SWISSPROT_SEQS, &TAIL, opts.seed)
        });
        let queries = (0..QUERIES)
            .map(|i| make_query(QUERY_LEN, opts.seed.wrapping_mul(QUERIES).wrapping_add(i)))
            .collect();
        let mut driver = CudaSwDriver::new(DeviceSpec::tesla_c2050(), CudaSwConfig::improved());
        let (staged, st) = tracer.timed("stage_database", "cudasw-core", || {
            driver
                .stage_database(&db)
                .expect("a fault-free C2050 holds the staged database")
        });
        tracer.end(span);
        gen_s.push(g);
        stage_s.push(st);
        Setup {
            db,
            queries,
            driver,
            staged,
        }
    });

    // A traced run first repeats the untraced loop for half the window,
    // so the two halves give the tracing overhead.
    let cpu_before = process_cpu_s();
    let (untraced, traced) = if opts.trace {
        let base = measure(&mut s, &mut Tracer::new(false), opts.seconds / 2.0);
        (base, measure(&mut s, tracer, opts.seconds / 2.0))
    } else {
        (measure(&mut s, tracer, opts.seconds), Vec::new())
    };
    let cpu_s = process_cpu_s() - cpu_before;
    let all: Vec<&Search> = untraced.iter().chain(&traced).collect();
    res.attempted = all.len() as u64;
    res.failed = all.iter().filter(|x| x.result.is_err()).count() as u64;
    verify(&s, &untraced, tracer, &mut res);
    verify(&s, &traced, tracer, &mut res);

    let measured = if opts.trace { &traced } else { &untraced };
    let ok: Vec<(&SearchResult, f64)> = measured
        .iter()
        .filter_map(|x| x.result.as_ref().ok().map(|r| (r, x.wall)))
        .collect();
    let walls: Vec<f64> = ok.iter().map(|&(_, w)| w).collect();
    let cells: u64 = ok.iter().map(|(r, _)| r.total_cells()).sum();
    let kernel_s: f64 = ok.iter().map(|(r, _)| r.kernel_seconds()).sum();
    let ns_per_cell: Vec<f64> = ok
        .iter()
        .map(|(r, w)| w * 1.0e9 / r.total_cells().max(1) as f64)
        .collect();
    let sim_gcups = cells as f64 / kernel_s / 1.0e9;

    if opts.trace {
        let base_walls: Vec<f64> = untraced
            .iter()
            .filter(|x| x.result.is_ok())
            .map(|x| x.wall)
            .collect();
        let l = &mut res.per_layer;
        l.insert("db.generate_s", median(&gen_s));
        l.insert("core.stage_wall_s", median(&stage_s));
        l.insert("core.search_wall_s", median(&walls));
        l.insert("core.sim_host_ns_per_cell", median(&ns_per_cell));
        l.insert("core.sim_gcups", sim_gcups);
        l.insert(
            "obs.trace_overhead_frac",
            median(&walls) / median(&base_walls) - 1.0,
        );
        let first = traced
            .iter()
            .find_map(|x| x.result.as_ref().ok().map(|r| (r, &x.counters)));
        if let Some((r, counters)) = first {
            insert_core_sim(l, r);
            if let Some(m) = counters {
                insert_gpu_sim(l, m);
            }
        }
    } else {
        let e = &mut res.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("ok_frac", ok.len() as f64 / measured.len() as f64);
        e.insert("cpu_ms_per_op", cpu_s * 1.0e3 / measured.len() as f64);
    }
    res.note("p50_ms", median(&walls) * 1.0e3, "ms", "wall");
    res.note("searches", measured.len() as f64, "count", "-");
    res.note("p99_ms", percentile(&walls, 99.0) * 1.0e3, "ms", "wall");
    res.note(
        "cells_per_search",
        cells as f64 / ok.len().max(1) as f64,
        "count",
        "-",
    );
    res.note(
        "failed_frac",
        1.0 - ok.len() as f64 / measured.len() as f64,
        "frac",
        "-",
    );
    res.note("sim_gcups", sim_gcups, "GCUPS", "sim");
    res.note("sim_host_ns_per_cell", median(&ns_per_cell), "ns", "wall");
    res
}

/// The simulated split of one search (sim clock; cells are counts).
pub fn insert_core_sim(l: &mut std::collections::BTreeMap<&'static str, f64>, r: &SearchResult) {
    l.insert("core.inter.sim_s", r.inter.seconds);
    l.insert("core.intra.sim_s", r.intra.seconds);
    l.insert("core.inter.cells", r.inter.cells as f64);
    l.insert("core.intra.cells", r.intra.cells as f64);
    l.insert("core.intra_time_frac", r.fraction_time_intra());
    l.insert("core.transfer_sim_s", r.transfer_seconds);
}

/// gpu-sim's launch counters from a captured registry.
pub fn insert_gpu_sim(l: &mut std::collections::BTreeMap<&'static str, f64>, m: &MetricsRegistry) {
    let sum = |name: &str| m.counter_sum(name, &[]);
    l.insert("gpu_sim.launches", sum("cudasw.gpu_sim.launch.calls"));
    l.insert(
        "gpu_sim.global_transactions",
        sum("cudasw.gpu_sim.launch.global_transactions"),
    );
    l.insert(
        "gpu_sim.dram_bytes",
        sum("cudasw.gpu_sim.launch.dram_bytes"),
    );
    l.insert(
        "gpu_sim.shared_bank_conflicts",
        sum("cudasw.gpu_sim.launch.shared_bank_conflicts"),
    );
    l.insert(
        "gpu_sim.hidden_latency_cycles",
        sum("cudasw.gpu_sim.launch.hidden_latency_cycles"),
    );
    // Slowest over fastest block of the intra-task launches, as
    // `repro device-opt` reports it.
    let intra = [("kernel", "intra_improved")];
    let max = m.counter_sum("cudasw.gpu_sim.launch.block_cycles_max", &intra);
    let min = m.counter_sum("cudasw.gpu_sim.launch.block_cycles_min", &intra);
    l.insert(
        "gpu_sim.block_imbalance",
        if min > 0.0 { max / min } else { 1.0 },
    );
}
