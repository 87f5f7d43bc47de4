//! `host-swissprot`: the real host SIMD engine's database throughput.
//!
//! A Swissprot-shaped database with mutated copies of every query planted
//! in it is searched by `sw-simd` (`QueryEngine` + `search_sequences`) on
//! the runtime-selected backend at the hardware thread count. The planted
//! homologs score past the byte range, so the word-mode re-run layer does
//! real work; gpu-sim and the serving stack are not touched. A seeded
//! sample of scores is checked against the scalar `sw_score`, and the
//! planted homologs must rank at the top of their query's hits.

use crate::report::{median, percentile, process_cpu_s, RunResult};
use crate::tracer::Tracer;
use crate::{device, gateway, host_threads, timed_setups, Opts};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};
use sw_align::{sw_score, Alphabet, SwParams};
use sw_db::synth::make_query;
use sw_db::{Database, Sequence};
use sw_simd::{search_sequences, HostSearchResult, Precision, QueryEngine};

/// Swissprot-shaped sequences before planting. Large enough that one
/// search takes most of a second: short searches repeat poorly on a
/// shared host, and the pool's wall time moves in whole watchdog polls.
const HOST_SEQS: usize = 50_000;

/// Table II query lengths. An odd count puts the latency median inside
/// one length's samples rather than on the seam between two.
const QUERY_LENS: [usize; 5] = [189, 246, 375, 464, 567];

/// Mutated copies of each query planted in the database.
const PLANTS: usize = 2;

/// Per-residue substitution probability of a planted copy.
const MUTATION_RATE: f64 = 0.15;

/// Random `(query, sequence)` pairs checked against the scalar oracle,
/// on top of every planted pair.
const SCALAR_SAMPLE: usize = 48;

struct Setup {
    db: Database,
    queries: Vec<Vec<u8>>,
    engines: Vec<QueryEngine>,
    /// Database indices of each query's planted homologs.
    planted: Vec<Vec<usize>>,
}

/// One pass searches every query once; its searches in query order.
type Pass = Vec<(HostSearchResult, f64)>;

fn planted_id(q: usize, j: usize) -> String {
    format!("planted|q{q}|{j}")
}

fn build_db(seed: u64, queries: &[Vec<u8>]) -> Database {
    let mut seqs = device::swissprot("host-swissprot", HOST_SEQS, &[], seed)
        .sequences()
        .to_vec();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x0050_4C41_4E54); // "PLANT"
    for (q, query) in queries.iter().enumerate() {
        for j in 0..PLANTS {
            let residues = query
                .iter()
                .map(|&r| {
                    if rng.gen_range(0.0..1.0) < MUTATION_RATE {
                        // The 20 standard residues lead the alphabet.
                        rng.gen_range(0..20u8)
                    } else {
                        r
                    }
                })
                .collect();
            seqs.push(Sequence::new(planted_id(q, j), residues));
        }
    }
    Database::new("host-swissprot", Alphabet::Protein, seqs)
}

/// Whole passes over the queries until `seconds` of wall time are spent.
fn measure(s: &Setup, tracer: &mut Tracer, threads: usize, seconds: f64) -> Vec<Pass> {
    let end = Instant::now() + Duration::from_secs_f64(seconds);
    let mut passes = Vec::new();
    while passes.is_empty() || Instant::now() < end {
        let pass = s
            .engines
            .iter()
            .map(|engine| {
                tracer.timed("search_sequences", "sw-simd", || {
                    search_sequences(engine, s.db.sequences(), threads, Precision::Adaptive)
                })
            })
            .collect();
        passes.push(pass);
    }
    passes
}

fn verify(s: &Setup, passes: &[Pass], seed: u64, res: &mut RunResult) {
    let params = SwParams::cudasw_default();
    let first = &passes[0];
    // Every pass must reproduce the first bit for bit.
    for (p, pass) in passes.iter().enumerate().skip(1) {
        for (q, (r, _)) in pass.iter().enumerate() {
            if r.scores != first[q].0.scores {
                res.fail(format!("pass {p} query {q}: scores differ from pass 0"));
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5343_414C); // "SCAL"
    let mut pairs: Vec<(usize, usize)> = (0..SCALAR_SAMPLE)
        .map(|_| {
            (
                rng.gen_range(0..s.queries.len()),
                rng.gen_range(0..s.db.len()),
            )
        })
        .collect();
    for (q, idx) in s.planted.iter().enumerate() {
        pairs.extend(idx.iter().map(|&i| (q, i)));
    }
    for (q, i) in pairs {
        let want = sw_score(&params, &s.queries[q], &s.db.sequences()[i].residues);
        let got = first[q].0.scores[i];
        if got != want {
            res.fail(format!(
                "query {q} sequence {i}: engine {got}, scalar {want}"
            ));
        }
    }
    for (q, idx) in s.planted.iter().enumerate() {
        let scores = &first[q].0.scores;
        let weakest_plant = idx.iter().map(|&i| scores[i]).min().unwrap_or(i32::MIN);
        let best_other = (0..scores.len())
            .filter(|i| !idx.contains(i))
            .map(|i| scores[i])
            .max()
            .unwrap_or(i32::MIN);
        if idx.len() != PLANTS || weakest_plant <= best_other {
            res.fail(format!(
                "query {q}: planted homologs score {weakest_plant} at worst, best other hit {best_other}"
            ));
        }
    }
}

pub fn run(opts: &Opts, tracer: &mut Tracer) -> RunResult {
    let mut res = RunResult::new();
    let threads = host_threads();
    let params = SwParams::cudasw_default();
    let mut gen_s = Vec::new();
    let (s, setup_s) = timed_setups(|| {
        let span = tracer.begin("setup", "perfbench");
        let queries: Vec<Vec<u8>> = QUERY_LENS
            .iter()
            .enumerate()
            .map(|(i, &len)| make_query(len, opts.seed.wrapping_mul(31).wrapping_add(i as u64)))
            .collect();
        let (db, g) = tracer.timed("generate", "sw-db", || build_db(opts.seed, &queries));
        let engines = queries
            .iter()
            .map(|q| {
                tracer.time("QueryEngine::new", "sw-simd", || {
                    QueryEngine::new(params.clone(), q)
                })
            })
            .collect();
        tracer.end(span);
        gen_s.push(g);
        let planted = (0..queries.len())
            .map(|q| {
                let ids: Vec<String> = (0..PLANTS).map(|j| planted_id(q, j)).collect();
                (0..db.len())
                    .filter(|&i| ids.contains(&db.sequences()[i].id))
                    .collect()
            })
            .collect();
        Setup {
            db,
            queries,
            engines,
            planted,
        }
    });

    let cpu_before = process_cpu_s();
    let (untraced, traced) = if opts.trace {
        let base = measure(&s, &mut Tracer::new(false), threads, opts.seconds / 2.0);
        (base, measure(&s, tracer, threads, opts.seconds / 2.0))
    } else {
        (measure(&s, tracer, threads, opts.seconds), Vec::new())
    };
    let cpu_s = process_cpu_s() - cpu_before;
    verify(&s, &untraced, opts.seed, &mut res);
    let measured = if opts.trace { &traced } else { &untraced };
    if opts.trace {
        verify(&s, &traced, opts.seed, &mut res);
    }
    let searches =
        |passes: &[Pass]| -> Vec<f64> { passes.iter().flatten().map(|(_, w)| *w).collect() };
    let walls = searches(measured);
    // Throughput from the median pass, so one slow pass (a noisy
    // neighbour) does not move it.
    let pass_walls: Vec<f64> = measured
        .iter()
        .map(|p| p.iter().map(|(_, w)| w).sum())
        .collect();
    let pass_s = median(&pass_walls);
    let batch_cells: u64 = s.queries.iter().map(|q| s.db.total_cells(q.len())).sum();
    let host_gcups = batch_cells as f64 / pass_s / 1.0e9;
    res.attempted = (searches(&untraced).len() + searches(&traced).len()) as u64;

    if opts.trace {
        // The 1-thread baseline for the scaling efficiency.
        let single = measure(&s, tracer, 1, 0.0);
        verify(&s, &single, opts.seed, &mut res);
        let t1: f64 = single[0].iter().map(|(_, w)| w).sum();
        let pass = &measured[0];
        let stat =
            |f: fn(&HostSearchResult) -> u64| pass.iter().map(|(r, _)| f(r)).sum::<u64>() as f64;
        let byte = stat(|r| r.stats.byte_mode);
        let reruns = stat(|r| r.stats.word_fallbacks);
        let probe = gateway::host_probe(opts.seed, 1, tracer);
        let l = &mut res.per_layer;
        l.insert("db.generate_s", median(&gen_s));
        l.insert("simd.search_wall_s", median(&walls));
        l.insert("simd.host_gcups", host_gcups);
        l.insert("simd.byte_alignments", byte);
        l.insert("simd.word_reruns", reruns);
        l.insert("simd.byte_useful_frac", 1.0 - reruns / (byte + reruns));
        l.insert(
            "simd.lazy_f_iterations",
            stat(|r| r.stats.lazy_f_byte + r.stats.lazy_f_word),
        );
        l.insert("simd.steals", stat(|r| r.steals));
        l.insert("simd.scaling_eff", t1 / (pass_s * threads as f64));
        l.insert("simd.profile_build_us", probe.profile_build_us);
        l.insert("simd.small_search_ms", probe.search_ms);
        l.insert(
            "obs.trace_overhead_frac",
            median(&walls) / median(&searches(&untraced)) - 1.0,
        );
    } else {
        let e = &mut res.end_to_end;
        e.insert("setup_s", setup_s);
        e.insert("ok_frac", 1.0);
        e.insert("cpu_ms_per_op", cpu_s * 1.0e3 / walls.len() as f64);
    }
    res.note("p50_ms", median(&walls) * 1.0e3, "ms", "wall");
    res.note("searches", walls.len() as f64, "count", "-");
    res.note("p99_ms", percentile(&walls, 99.0) * 1.0e3, "ms", "wall");
    res.note("passes", measured.len() as f64, "count", "-");
    res.note("failed_frac", 0.0, "frac", "-");
    res.note("host_gcups", host_gcups, "GCUPS", "wall");
    res.note("qps", s.queries.len() as f64 / pass_s, "1/s", "wall");
    res
}
