//! Golden results for every search entry point of the driver.
//!
//! Each case runs on a fresh driver and pins, call by call, everything a
//! search leaves behind: every [`SearchResult`] field (floats by their
//! bits), the whole [`RecoveryReport`] with its event log,
//! `dev.transfer_stats()`, every `cudasw.core.*` and `cudasw.gpu_sim.*`
//! counter (values by their bits) and the ordered span names. Every call
//! runs in its own `obs::capture`, so a pin is the delta of that call and
//! nothing an earlier call recorded can leak into it.
//!
//! The entry points covered: `search`; `stage_database` followed by
//! `search_staged` on three queries and `search_staged_with_profile`;
//! `search_resilient` fault-free and under six fault plans; a checkpointed
//! search killed at a launch and resumed; `multi_gpu_search_resilient`
//! with one dead device; and `run_intra_variant` for every ablation stage.
//! The driver may be restructured only if every line here stays identical.
//!
//! The table stores, per case, a readable summary plus a 64-bit FNV-1a
//! hash of the full rendering. On a mismatch the test prints the observed
//! table in source form and the full rendering of the first changed cases.

use cudasw_core::variants::{development_stages, extension_stages, run_intra_variant};
use cudasw_core::{
    multi_gpu_search_resilient, CheckpointPolicy, CudaSwConfig, CudaSwDriver, DeviceKernelConfig,
    ImprovedParams, IntraKernelChoice, RecoveryPolicy, RecoveryReport, ResilientSearchResult,
    SearchResult, VariantConfig,
};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite, GpuError};
use std::fmt::Write as _;
use sw_align::PackedProfile;
use sw_db::synth::{database_with_lengths, make_query};
use sw_db::Database;

/// Eight sequences under the threshold (all within one 64-column panel
/// on the C2050, several panels on the C1060) and six over it.
fn db() -> Database {
    database_with_lengths(
        "executor-golden",
        &[20, 28, 33, 41, 47, 52, 58, 63, 64, 70, 96, 130, 181, 240],
        21,
    )
}

fn queries() -> [Vec<u8>; 3] {
    [make_query(150, 5), make_query(33, 6), make_query(52, 7)]
}

fn config(intra: IntraKernelChoice, device: DeviceKernelConfig) -> CudaSwConfig {
    CudaSwConfig {
        threshold: 64,
        inter_threads_per_block: 64,
        improved: ImprovedParams {
            threads_per_block: 32,
            tile_height: 4,
        },
        intra,
        device,
        ..CudaSwConfig::improved()
    }
}

/// `DeviceKernelConfig` none, each single flag and all five on the
/// C2050, none and all on the C1060; each with both intra kernels.
fn configs() -> Vec<(String, DeviceSpec, CudaSwConfig)> {
    let none = DeviceKernelConfig::default();
    let singles = [
        DeviceKernelConfig {
            boundary_staging: true,
            ..none
        },
        DeviceKernelConfig {
            shared_only: true,
            ..none
        },
        DeviceKernelConfig {
            pipeline_fusion: true,
            ..none
        },
        DeviceKernelConfig {
            streamed_h2d: true,
            ..none
        },
        DeviceKernelConfig {
            balanced_intra: true,
            ..none
        },
    ];
    let mut devices = vec![(
        "c2050",
        DeviceSpec::tesla_c2050(),
        std::iter::once(none)
            .chain(singles)
            .chain([DeviceKernelConfig::all_on()])
            .collect::<Vec<_>>(),
    )];
    devices.push((
        "c1060",
        DeviceSpec::tesla_c1060(),
        vec![none, DeviceKernelConfig::all_on()],
    ));
    let mut out = Vec::new();
    for (dev_name, spec, flags) in devices {
        for dc in flags {
            for (kname, intra) in [
                ("orig", IntraKernelChoice::Original),
                (
                    "imp",
                    IntraKernelChoice::Improved(VariantConfig::improved()),
                ),
            ] {
                out.push((
                    format!("{dev_name}/{}/{kname}", dc.label()),
                    spec.clone(),
                    config(intra, dc),
                ));
            }
        }
    }
    out
}

/// A float by its bits. Signed zero is folded to `+0.0` (adding `0.0`
/// changes no other value): an empty sum may carry either sign, and the
/// `SearchResult` equality the driver promises does not tell them apart.
fn bits(x: f64) -> String {
    format!("{:016x}", (x + 0.0).to_bits())
}

fn render_result(r: &SearchResult) -> String {
    let run = |s: &gpu_sim::stats::RunStats| {
        format!(
            "{}/{}/{}/{}",
            s.launches,
            s.cells,
            bits(s.seconds),
            s.global_transactions
        )
    };
    format!(
        "scores={:?} inter={} intra={} xfer={} frac={} thr={} qlen={}",
        r.scores,
        run(&r.inter),
        run(&r.intra),
        bits(r.transfer_seconds),
        bits(r.fraction_long),
        r.threshold,
        r.query_len
    )
}

fn render_report(r: &RecoveryReport) -> String {
    format!(
        "retries={} denied={} host_denied={} rechunks={} cpu={} redispatch={} qchunks={} \
         qseqs={} degraded={} backoff={} events={:?}",
        r.retries,
        r.budget_denied_retries,
        r.host_budget_denied,
        r.rechunks,
        r.cpu_fallback_seqs,
        r.shard_redispatches,
        r.quarantined_chunks,
        r.quarantined_seqs,
        r.degraded,
        bits(r.backoff_seconds),
        r.events
    )
}

fn render_resilient(r: &Result<ResilientSearchResult, GpuError>) -> String {
    match r {
        Ok(rr) => format!(
            "{} | {}",
            render_result(&rr.result),
            render_report(&rr.recovery)
        ),
        Err(e) => format!("err={e}"),
    }
}

fn render_transfers(dev: &gpu_sim::GpuDevice) -> String {
    let t = dev.transfer_stats();
    format!(
        "h2d={}/{} d2h={}/{} faults={}/{} integrity={}/{} streamed={} hidden={}",
        t.h2d_bytes,
        bits(t.h2d_seconds),
        t.d2h_bytes,
        bits(t.d2h_seconds),
        t.h2d_faults,
        t.d2h_faults,
        t.integrity_checked,
        t.integrity_mismatches,
        t.h2d_streamed,
        bits(t.h2d_hidden_seconds)
    )
}

/// Every `cudasw.core.*` / `cudasw.gpu_sim.*` counter, the ordered span
/// and instant names and the simulated clock one captured call recorded.
fn render_obs(run: &obs::Obs) -> String {
    let mut out = String::new();
    for (key, value) in run.metrics.counters() {
        if key.name.starts_with("cudasw.core.") || key.name.starts_with("cudasw.gpu_sim.") {
            let _ = write!(out, "{key:?}={} ", bits(value));
        }
    }
    let spans: Vec<&str> = run.trace.spans.iter().map(|s| s.name.as_str()).collect();
    let instants: Vec<&str> = run.trace.instants.iter().map(|i| i.name.as_str()).collect();
    let _ = write!(
        out,
        "spans={spans:?} instants={instants:?} clock={}",
        bits(run.clock)
    );
    out
}

/// Runs captured calls against one case and collects their renderings.
struct Case {
    summary: Vec<String>,
    detail: String,
}

impl Case {
    fn new() -> Self {
        Self {
            summary: Vec::new(),
            detail: String::new(),
        }
    }

    /// Run `f` in a fresh capture; `f` returns (summary, detail) strings.
    fn step(&mut self, label: &str, f: impl FnOnce() -> (String, String)) {
        let ((summary, detail), run) = obs::capture(f);
        let _ = writeln!(
            self.detail,
            "[{label}] {detail}\n[{label}] {}",
            render_obs(&run)
        );
        self.summary.push(format!("{label}: {summary}"));
    }

    fn finish(self) -> (String, String) {
        let line = format!(
            "{} | h={:016x}",
            self.summary.join(" ; "),
            fnv1a(&self.detail)
        );
        (line, self.detail)
    }
}

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A short, readable digest of a result: a score checksum, the phase
/// seconds and the transfer seconds.
fn brief(r: &SearchResult) -> String {
    let crc = gpu_sim::crc32_words(&r.scores.iter().map(|&s| s as u32).collect::<Vec<_>>());
    format!(
        "crc={crc:08x} in={} ia={} x={}",
        bits(r.inter.seconds),
        bits(r.intra.seconds),
        bits(r.transfer_seconds)
    )
}

fn brief_resilient(r: &Result<ResilientSearchResult, GpuError>) -> String {
    match r {
        Ok(rr) => format!(
            "{} rec={}/{}/{}/{}",
            brief(&rr.result),
            rr.recovery.retries,
            rr.recovery.rechunks,
            rr.recovery.quarantined_chunks,
            rr.recovery.cpu_fallback_seqs
        ),
        Err(e) => format!("err={e}"),
    }
}

/// One resilient search on a fresh driver with `plan` injected.
fn resilient_case(
    spec: &DeviceSpec,
    cfg: &CudaSwConfig,
    plan: FaultPlan,
    policy: &RecoveryPolicy,
) -> (String, String) {
    let db = db();
    let [q, _, _] = queries();
    let mut case = Case::new();
    let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
    d.dev.inject_faults(plan);
    case.step("resilient", || {
        let r = d.search_resilient(&q, &db, policy);
        (
            brief_resilient(&r),
            format!("{} | {}", render_resilient(&r), render_transfers(&d.dev)),
        )
    });
    case.finish()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("csw-executor-golden-{tag}-{}", std::process::id()))
}

/// Every path for one configuration, rendered.
fn config_cases(
    name: &str,
    spec: &DeviceSpec,
    cfg: &CudaSwConfig,
) -> Vec<(String, String, String)> {
    let db = db();
    let [q1, q2, q3] = queries();
    let mut out = Vec::new();
    let mut push = |path: &str, (line, detail): (String, String)| {
        out.push((format!("{name}/{path}"), line, detail));
    };

    // Plain search.
    let mut case = Case::new();
    let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
    case.step("search", || {
        let r = d.search(&q1, &db).unwrap();
        (
            brief(&r),
            format!("{} | {}", render_result(&r), render_transfers(&d.dev)),
        )
    });
    push("search", case.finish());

    // Staged: stage once, three queries, then one with a caller profile.
    let mut case = Case::new();
    let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
    let mut staged = None;
    case.step("stage", || {
        let s = d.stage_database(&db).unwrap();
        let line = format!(
            "len={} stage={} frac={} thr={}",
            s.len(),
            bits(s.staging_seconds()),
            bits(s.fraction_long()),
            s.threshold()
        );
        staged = Some(s);
        (
            line.clone(),
            format!("{line} | {}", render_transfers(&d.dev)),
        )
    });
    let staged = staged.unwrap();
    for (i, q) in [&q1, &q2, &q3].into_iter().enumerate() {
        case.step(&format!("staged{i}"), || {
            let r = d.search_staged(q, &staged).unwrap();
            (
                brief(&r),
                format!("{} | {}", render_result(&r), render_transfers(&d.dev)),
            )
        });
    }
    case.step("staged-profile", || {
        let packed = PackedProfile::build(&cfg.params.matrix, &q2);
        let r = d.search_staged_with_profile(&q2, &packed, &staged).unwrap();
        (
            format!("{} valid={}", brief(&r), d.staged_valid(&staged)),
            format!("{} | {}", render_result(&r), render_transfers(&d.dev)),
        )
    });
    push("staged", case.finish());

    // The recovery ladder, fault-free and under six fault plans.
    let policy = RecoveryPolicy::default();
    push(
        "resilient",
        resilient_case(spec, cfg, FaultPlan::none(), &policy),
    );
    push(
        "transient-launch",
        resilient_case(
            spec,
            cfg,
            FaultPlan::none().with_transient(FaultSite::Launch, 0),
            &policy,
        ),
    );
    push(
        "transient-h2d",
        resilient_case(
            spec,
            cfg,
            FaultPlan::none().with_transient(FaultSite::HostToDevice, 2),
            &policy,
        ),
    );
    push(
        "oom-rechunk",
        resilient_case(spec, cfg, FaultPlan::none().with_oom(2), &policy),
    );
    push(
        "quarantine",
        resilient_case(
            spec,
            cfg,
            FaultPlan::none().with_silent_corruption(FaultSite::DeviceToHost, 0),
            &policy,
        ),
    );
    push(
        "watchdog-hang",
        resilient_case(
            spec,
            cfg,
            FaultPlan::none().with_hang(1),
            &RecoveryPolicy {
                watchdog_cycles: Some(1_000_000_000),
                ..RecoveryPolicy::default()
            },
        ),
    );
    push(
        "device-loss",
        resilient_case(
            spec,
            cfg,
            FaultPlan::none().with_device_loss(FaultSite::Launch, 1),
            &policy,
        ),
    );

    // Checkpointed search killed at its second launch, then resumed.
    let dir = temp_dir(&name.replace('/', "-"));
    let ckpt = CheckpointPolicy::at(dir.join("run.ckpt"));
    let no_fallback = RecoveryPolicy {
        cpu_fallback: false,
        ..RecoveryPolicy::default()
    };
    let mut case = Case::new();
    for (label, plan) in [
        (
            "killed",
            FaultPlan::none().with_device_loss(FaultSite::Launch, 1),
        ),
        ("resumed", FaultPlan::none()),
    ] {
        let mut d = CudaSwDriver::new(spec.clone(), cfg.clone());
        d.dev.inject_faults(plan);
        case.step(label, || {
            let r = d.search_resilient_checkpointed(&q1, &db, &no_fallback, &ckpt);
            (
                brief_resilient(&r),
                format!("{} | {}", render_resilient(&r), render_transfers(&d.dev)),
            )
        });
    }
    std::fs::remove_dir_all(&dir).ok();
    push("checkpoint-resume", case.finish());

    // Two devices, the second dead at its first launch.
    let mut case = Case::new();
    case.step("multi-gpu", || {
        let plans = [
            FaultPlan::none(),
            FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
        ];
        let r = multi_gpu_search_resilient(spec, cfg, &q3, &db, 2, &plans, &policy).unwrap();
        let crc = gpu_sim::crc32_words(&r.scores.iter().map(|&s| s as u32).collect::<Vec<_>>());
        let per_device: Vec<String> = r
            .per_device
            .iter()
            .map(|d| d.as_ref().map_or("dead".to_string(), render_result))
            .collect();
        (
            format!(
                "crc={crc:08x} alive={} rec={}/{}",
                r.surviving_devices(),
                r.recovery.shard_redispatches,
                r.recovery.cpu_fallback_seqs
            ),
            format!(
                "scores={:?} devices={} per_device={per_device:?} | {}",
                r.scores,
                r.devices,
                render_report(&r.recovery)
            ),
        )
    });
    push("multi-gpu-dead", case.finish());
    out
}

/// `run_intra_variant` for every ablation stage, on both devices; the
/// last case is long enough that the shared-memory boundary falls back
/// on the C1060.
fn variant_cases() -> Vec<(String, String, String)> {
    let params = ImprovedParams {
        threads_per_block: 32,
        tile_height: 4,
    };
    let short = database_with_lengths("golden-variants", &[96, 150, 233, 301], 23);
    let long = database_with_lengths("golden-variants-long", &[2100], 29);
    let query = make_query(200, 9);
    let stages: Vec<(String, VariantConfig)> = development_stages()
        .into_iter()
        .map(|s| (format!("dev/{}", s.name), s.variant))
        .chain(
            extension_stages()
                .into_iter()
                .map(|s| (format!("ext/{}", s.name), s.variant)),
        )
        .collect();
    let mut out = Vec::new();
    for (dev_name, spec) in [
        ("c2050", DeviceSpec::tesla_c2050()),
        ("c1060", DeviceSpec::tesla_c1060()),
    ] {
        for (stage, variant) in &stages {
            let cases = [("", &short)]
                .into_iter()
                .chain((stage == "ext/+shared-boundary").then_some(("-long", &long)));
            for (suffix, db) in cases {
                let mut case = Case::new();
                case.step("variant", || {
                    let (scores, stats) =
                        run_intra_variant(&spec, db.sequences(), &query, params, *variant).unwrap();
                    (
                        format!(
                            "{} scores={scores:?} sec={}",
                            stats.kernel,
                            bits(stats.seconds)
                        ),
                        format!("{scores:?} {stats:?}"),
                    )
                });
                let (line, detail) = case.finish();
                out.push((format!("variant/{dev_name}/{stage}{suffix}"), line, detail));
            }
        }
    }
    out
}

fn observed() -> Vec<(String, String, String)> {
    let mut out = Vec::new();
    for (name, spec, cfg) in configs() {
        out.extend(config_cases(&name, &spec, &cfg));
    }
    out.extend(variant_cases());
    out
}

/// The pinned renderings, one line per case, in [`observed`] order.
const GOLDEN: &[(&str, &str)] = &[
    (
        "c2050/none/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb1 | h=234112bb6a16ccba",
    ),
    (
        "c2050/none/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 valid=true | h=9d9d1aa7dd8de75b",
    ),
    (
        "c2050/none/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=2bc62574b61cbad6",
    ),
    (
        "c2050/none/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=bdc4fc429264af9e",
    ),
    (
        "c2050/none/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=37ff0babdb2bace4",
    ),
    (
        "c2050/none/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/1/0/0 | h=dad94ef8cec2989a",
    ),
    (
        "c2050/none/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=43a12764af1e13a6",
    ),
    (
        "c2050/none/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=9ae12fd3bf33e17a",
    ),
    (
        "c2050/none/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=28a9b88dddb60cf9",
    ),
    (
        "c2050/none/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=d7ea9cdcfe3024b1",
    ),
    (
        "c2050/none/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=a031b4593f5aa537",
    ),
    (
        "c2050/none/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb1 | h=9e8589602ddd8ebe",
    ),
    (
        "c2050/none/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 valid=true | h=4e1c80bbad5eaf1d",
    ),
    (
        "c2050/none/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=5bacb9cd968ceee0",
    ),
    (
        "c2050/none/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=dff35f8d3b4486fc",
    ),
    (
        "c2050/none/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=30ab1a3fb9eee40f",
    ),
    (
        "c2050/none/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/1/0/0 | h=c8f35d0ffe8c61ca",
    ),
    (
        "c2050/none/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e798d23e2f2bc x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=4e18211129cccf0c",
    ),
    (
        "c2050/none/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=5bab7b5d008630b9",
    ),
    (
        "c2050/none/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=03b71c762bdc0711",
    ),
    (
        "c2050/none/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=495b57afcd07ee4f",
    ),
    (
        "c2050/none/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=94a715ac49318f32",
    ),
    (
        "c2050/staging/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb1 | h=1f34fa9dd4b613db",
    ),
    (
        "c2050/staging/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 valid=true | h=4b94e19eb3ff9534",
    ),
    (
        "c2050/staging/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=114a9f40cf3c6095",
    ),
    (
        "c2050/staging/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=232dc18e265613a2",
    ),
    (
        "c2050/staging/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=49bc86d71d8b04bb",
    ),
    (
        "c2050/staging/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/1/0/0 | h=d02f3bd007256a8d",
    ),
    (
        "c2050/staging/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=0f490b6111e0c6b6",
    ),
    (
        "c2050/staging/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=863aa55062ec7dd5",
    ),
    (
        "c2050/staging/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=353c996d927891f8",
    ),
    (
        "c2050/staging/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=456ddf09b3ae4907",
    ),
    (
        "c2050/staging/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=ef380a723c50b09f",
    ),
    (
        "c2050/staging/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb1 | h=a437c3a809a7bab7",
    ),
    (
        "c2050/staging/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 valid=true | h=2336a8b733aeb10e",
    ),
    (
        "c2050/staging/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=fc41861cf27c9a93",
    ),
    (
        "c2050/staging/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=bcc1bbf7955fdbe0",
    ),
    (
        "c2050/staging/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=0aa2021de02e826a",
    ),
    (
        "c2050/staging/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/1/0/0 | h=d996999d8a89f6cd",
    ),
    (
        "c2050/staging/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e798d23e2f2bc x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=f3ac15c760cd1578",
    ),
    (
        "c2050/staging/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=7f750c7ac844e883",
    ),
    (
        "c2050/staging/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=dfc12847d13f59a4",
    ),
    (
        "c2050/staging/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=db676a5b3238683f",
    ),
    (
        "c2050/staging/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=5c0ac2ec94998643",
    ),
    (
        "c2050/shared/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb1 | h=1f34fa9dd4b613db",
    ),
    (
        "c2050/shared/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 valid=true | h=4b94e19eb3ff9534",
    ),
    (
        "c2050/shared/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=114a9f40cf3c6095",
    ),
    (
        "c2050/shared/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=232dc18e265613a2",
    ),
    (
        "c2050/shared/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=49bc86d71d8b04bb",
    ),
    (
        "c2050/shared/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/1/0/0 | h=d02f3bd007256a8d",
    ),
    (
        "c2050/shared/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=0f490b6111e0c6b6",
    ),
    (
        "c2050/shared/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=863aa55062ec7dd5",
    ),
    (
        "c2050/shared/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=353c996d927891f8",
    ),
    (
        "c2050/shared/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=456ddf09b3ae4907",
    ),
    (
        "c2050/shared/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=ef380a723c50b09f",
    ),
    (
        "c2050/shared/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb1 | h=a437c3a809a7bab7",
    ),
    (
        "c2050/shared/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 valid=true | h=2336a8b733aeb10e",
    ),
    (
        "c2050/shared/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=fc41861cf27c9a93",
    ),
    (
        "c2050/shared/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=bcc1bbf7955fdbe0",
    ),
    (
        "c2050/shared/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=0aa2021de02e826a",
    ),
    (
        "c2050/shared/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/1/0/0 | h=d996999d8a89f6cd",
    ),
    (
        "c2050/shared/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e798d23e2f2bc x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=f3ac15c760cd1578",
    ),
    (
        "c2050/shared/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=7f750c7ac844e883",
    ),
    (
        "c2050/shared/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=dfc12847d13f59a4",
    ),
    (
        "c2050/shared/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=db676a5b3238683f",
    ),
    (
        "c2050/shared/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=5c0ac2ec94998643",
    ),
    (
        "c2050/fusion/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb1 | h=234112bb6a16ccba",
    ),
    (
        "c2050/fusion/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 valid=true | h=9d9d1aa7dd8de75b",
    ),
    (
        "c2050/fusion/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=2bc62574b61cbad6",
    ),
    (
        "c2050/fusion/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=bdc4fc429264af9e",
    ),
    (
        "c2050/fusion/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=37ff0babdb2bace4",
    ),
    (
        "c2050/fusion/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/1/0/0 | h=dad94ef8cec2989a",
    ),
    (
        "c2050/fusion/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=43a12764af1e13a6",
    ),
    (
        "c2050/fusion/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=9ae12fd3bf33e17a",
    ),
    (
        "c2050/fusion/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=28a9b88dddb60cf9",
    ),
    (
        "c2050/fusion/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=d7ea9cdcfe3024b1",
    ),
    (
        "c2050/fusion/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=a031b4593f5aa537",
    ),
    (
        "c2050/fusion/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb1 | h=44b254d3d315fd3e",
    ),
    (
        "c2050/fusion/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 valid=true | h=27bf1b65d3f3c1aa",
    ),
    (
        "c2050/fusion/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=0/0/0/0 | h=2af308c91b995b46",
    ),
    (
        "c2050/fusion/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=1/0/0/0 | h=c1ae18e58582a85d",
    ),
    (
        "c2050/fusion/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=1/0/0/0 | h=3cbc2efcb31627a5",
    ),
    (
        "c2050/fusion/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=0/1/0/0 | h=44cb9b288f2b76a0",
    ),
    (
        "c2050/fusion/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e4f890c54eccb x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=703caa16b16af8e4",
    ),
    (
        "c2050/fusion/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=1/0/0/0 | h=c82fa91b29d2e1f5",
    ),
    (
        "c2050/fusion/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=03b71c762bdc0711",
    ),
    (
        "c2050/fusion/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f25182a353c1bb0 rec=0/0/0/0 | h=01120d6362501d82",
    ),
    (
        "c2050/fusion/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=94a715ac49318f32",
    ),
    (
        "c2050/stream/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f152e0179768455 | h=68e7ca7ca36f7dbf",
    ),
    (
        "c2050/stream/orig/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f125a4dc3e32046 valid=true | h=d09ff901090faa6d",
    ),
    (
        "c2050/stream/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=567537dcd60a59a4",
    ),
    (
        "c2050/stream/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=cf138643680d11f2",
    ),
    (
        "c2050/stream/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=3df03873ad3e90e2",
    ),
    (
        "c2050/stream/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=1c9b72cd44c47cc8",
    ),
    (
        "c2050/stream/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f17d01253e8fe00 rec=0/0/1/0 | h=ccc2e74da8856888",
    ),
    (
        "c2050/stream/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=65a15e6f5acaacf5",
    ),
    (
        "c2050/stream/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=0d1d9a0dd4b98f13",
    ),
    (
        "c2050/stream/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=3514b175add4c219",
    ),
    (
        "c2050/stream/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=cf769f8e7a6d3b8f",
    ),
    (
        "c2050/stream/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f152e0179768455 | h=2cc0fda6dd092886",
    ),
    (
        "c2050/stream/imp/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f125a4dc3e32046 valid=true | h=137d6cfbf8442d92",
    ),
    (
        "c2050/stream/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=ad0f3b51c5c12cbe",
    ),
    (
        "c2050/stream/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=2069e5e601ba4a3a",
    ),
    (
        "c2050/stream/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=d0fc4ad6c89f72c1",
    ),
    (
        "c2050/stream/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=06e8d7d6ca7966b0",
    ),
    (
        "c2050/stream/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e798d23e2f2bc x=3f17d01253e8fe00 rec=0/0/1/0 | h=cc4429d3d25ce745",
    ),
    (
        "c2050/stream/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=c798bfee021f0662",
    ),
    (
        "c2050/stream/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=1d2fdfc7d5cc6997",
    ),
    (
        "c2050/stream/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=900a198fa54004d1",
    ),
    (
        "c2050/stream/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=e0d69ae8dffd6834",
    ),
    (
        "c2050/balance/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb1 | h=234112bb6a16ccba",
    ),
    (
        "c2050/balance/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f17a37666728d84 valid=true | h=9d9d1aa7dd8de75b",
    ),
    (
        "c2050/balance/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=2bc62574b61cbad6",
    ),
    (
        "c2050/balance/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=bdc4fc429264af9e",
    ),
    (
        "c2050/balance/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=37ff0babdb2bace4",
    ),
    (
        "c2050/balance/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/1/0/0 | h=dad94ef8cec2989a",
    ),
    (
        "c2050/balance/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=43a12764af1e13a6",
    ),
    (
        "c2050/balance/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=1/0/0/0 | h=9ae12fd3bf33e17a",
    ),
    (
        "c2050/balance/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=28a9b88dddb60cf9",
    ),
    (
        "c2050/balance/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f25182a353c1bb0 rec=0/0/0/0 | h=d7ea9cdcfe3024b1",
    ),
    (
        "c2050/balance/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=a031b4593f5aa537",
    ),
    (
        "c2050/balance/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb1 | h=9e8589602ddd8ebe",
    ),
    (
        "c2050/balance/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f17a37666728d84 valid=true | h=4e1c80bbad5eaf1d",
    ),
    (
        "c2050/balance/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=5bacb9cd968ceee0",
    ),
    (
        "c2050/balance/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=dff35f8d3b4486fc",
    ),
    (
        "c2050/balance/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=30ab1a3fb9eee40f",
    ),
    (
        "c2050/balance/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/1/0/0 | h=c8f35d0ffe8c61ca",
    ),
    (
        "c2050/balance/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e798d23e2f2bc x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=4e18211129cccf0c",
    ),
    (
        "c2050/balance/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=1/0/0/0 | h=5bab7b5d008630b9",
    ),
    (
        "c2050/balance/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=03b71c762bdc0711",
    ),
    (
        "c2050/balance/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e798d23e2f2bc x=3f25182a353c1bb0 rec=0/0/0/0 | h=495b57afcd07ee4f",
    ),
    (
        "c2050/balance/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=94a715ac49318f32",
    ),
    (
        "c2050/all/orig/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f152e0179768455 | h=a391626125a747fe",
    ),
    (
        "c2050/all/orig/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f2598fc353f0258 x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f23c4b61191bda4 x=3f125a4dc3e32046 valid=true | h=565a79a22a384bf2",
    ),
    (
        "c2050/all/orig/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=62299ea3a79e8a4b",
    ),
    (
        "c2050/all/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=8cf24d3e98f922ce",
    ),
    (
        "c2050/all/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=fca7ea4f6980e521",
    ),
    (
        "c2050/all/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=7bb63265deb69293",
    ),
    (
        "c2050/all/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f31cf72527a1835 x=3f17d01253e8fe00 rec=0/0/1/0 | h=231a7a6eccb8f3d8",
    ),
    (
        "c2050/all/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=f73210aedefc560e",
    ),
    (
        "c2050/all/orig/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=d35bfff76972453a",
    ),
    (
        "c2050/all/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f31cf72527a1835 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=c0951f60c4bac687",
    ),
    (
        "c2050/all/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=d79b0be0a8ca6cab",
    ),
    (
        "c2050/all/imp/search",
        "search: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f152e0179768455 | h=18ca72891dec89e7",
    ),
    (
        "c2050/all/imp/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f0683314998d99c ia=3f00545b6625b85e x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3eff005a44ca9b21 ia=3f001aef6816d262 x=3f125a4dc3e32046 valid=true | h=97159280c509b366",
    ),
    (
        "c2050/all/imp/resilient",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=4a7b50548a91cae5",
    ),
    (
        "c2050/all/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=dd28f53bac0b345a",
    ),
    (
        "c2050/all/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=579dcb409030d33d",
    ),
    (
        "c2050/all/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=6105a66727773ee3",
    ),
    (
        "c2050/all/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f0e4f890c54eccb x=3f17d01253e8fe00 rec=0/0/1/0 | h=d429dc5e9fee4954",
    ),
    (
        "c2050/all/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=407833d12b8ad854",
    ),
    (
        "c2050/all/imp/device-loss",
        "resilient: crc=537dcc53 in=3f1d813f9fcba166 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=87f7d7a42ba69f32",
    ),
    (
        "c2050/all/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f1d813f9fcba166 ia=3f0e4f890c54eccb x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=becac5d8f580d753",
    ),
    (
        "c2050/all/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=962d7152e4954279",
    ),
    (
        "c1060/none/orig/search",
        "search: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb1 | h=2b6c6aea8587526e",
    ),
    (
        "c1060/none/orig/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3f1742e044c5b872 ia=3f369609096a71ac x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f21da3ce7efcf68 ia=3f3a618c70a973d7 x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3f1742e044c5b872 ia=3f369609096a71ac x=3f17a37666728d84 valid=true | h=fbcdb8fb6229c81c",
    ),
    (
        "c1060/none/orig/resilient",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=0/0/0/0 | h=c8bee4dfdb7249f2",
    ),
    (
        "c1060/none/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=1/0/0/0 | h=f1d24fc4117d1a72",
    ),
    (
        "c1060/none/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=1/0/0/0 | h=e08c2ada21208379",
    ),
    (
        "c1060/none/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=0/1/0/0 | h=2406d22d7b2da7c6",
    ),
    (
        "c1060/none/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f4d99b1efa452a4 x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=d5cc3bd967e103cb",
    ),
    (
        "c1060/none/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=1/0/0/0 | h=4ae3bc12ac07e3da",
    ),
    (
        "c1060/none/orig/device-loss",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=cb275a5eb851a81c",
    ),
    (
        "c1060/none/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f4d99b1efa452a4 x=3f25182a353c1bb0 rec=0/0/0/0 | h=c3ea42c8526526f7",
    ),
    (
        "c1060/none/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=5aeafe902a0aec65",
    ),
    (
        "c1060/none/imp/search",
        "search: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb1 | h=0b7b6307ef51a282",
    ),
    (
        "c1060/none/imp/staged",
        "stage: len=14 stage=3f12697b8a0b2580 frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f17c6d8e06d11df ; staged1: crc=e21e5ba8 in=3f1742e044c5b872 ia=3f0e92acc1776094 x=3f17a37666728d84 ; staged2: crc=b01703f3 in=3f21da3ce7efcf68 ia=3f0f13ebe943f68b x=3f17a857d860242f ; staged-profile: crc=e21e5ba8 in=3f1742e044c5b872 ia=3f0e92acc1776094 x=3f17a37666728d84 valid=true | h=5c3064948f9e5f3b",
    ),
    (
        "c1060/none/imp/resilient",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=0/0/0/0 | h=dfac031fef0d0182",
    ),
    (
        "c1060/none/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=1/0/0/0 | h=82e43ce1630f2bd9",
    ),
    (
        "c1060/none/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=1/0/0/0 | h=7b7c50f56b5f4e96",
    ),
    (
        "c1060/none/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=0/1/0/0 | h=42152f62b385ee6e",
    ),
    (
        "c1060/none/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f1f07cdfd88c87c x=3f2275c1e4bb8fcb rec=0/0/1/0 | h=6c8f706f9757324e",
    ),
    (
        "c1060/none/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=1/0/0/0 | h=62374c630ae963d6",
    ),
    (
        "c1060/none/imp/device-loss",
        "resilient: crc=537dcc53 in=3f391e7d49ff7f10 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=3929bb453e236104",
    ),
    (
        "c1060/none/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f391e7d49ff7f10 ia=3f1f07cdfd88c87c x=3f25182a353c1bb0 rec=0/0/0/0 | h=cf0eebae0ec58573",
    ),
    (
        "c1060/none/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=6e051b72146a31b0",
    ),
    (
        "c1060/all/orig/search",
        "search: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f152e0179768455 | h=fb0b70ef9c1ec506",
    ),
    (
        "c1060/all/orig/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3f17661665c4d775 ia=3f369609096a71ac x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f21f2e2cbd59850 ia=3f3a618c70a973d7 x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3f17661665c4d775 ia=3f369609096a71ac x=3f125a4dc3e32046 valid=true | h=af6f1456a1af6bb5",
    ),
    (
        "c1060/all/orig/resilient",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=d75d8919c5bcabd9",
    ),
    (
        "c1060/all/orig/transient-launch",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=5c1dcb629a3d951c",
    ),
    (
        "c1060/all/orig/transient-h2d",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=1a3ca5226115db52",
    ),
    (
        "c1060/all/orig/oom-rechunk",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=ed034dfe4aa22bd9",
    ),
    (
        "c1060/all/orig/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f4d99b1efa452a4 x=3f17d01253e8fe00 rec=0/0/1/0 | h=cbed73fbc02b6f7f",
    ),
    (
        "c1060/all/orig/watchdog-hang",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=e18ac1ca8e8cfd1e",
    ),
    (
        "c1060/all/orig/device-loss",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=1d52e2c5cc2a3f79",
    ),
    (
        "c1060/all/orig/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f4d99b1efa452a4 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=228ba7f76b645346",
    ),
    (
        "c1060/all/orig/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=74e3e3a765231f42",
    ),
    (
        "c1060/all/imp/search",
        "search: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f152e0179768455 | h=f3ce8039735e5066",
    ),
    (
        "c1060/all/imp/staged",
        "stage: len=14 stage=3ee5779b1b04b65c frac=3fdb6db6db6db6db thr=64 ; staged0: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1288ab7e3437a3 ; staged1: crc=e21e5ba8 in=3f17661665c4d775 ia=3f0e92acc1776094 x=3f125a4dc3e32046 ; staged2: crc=b01703f3 in=3f21f2e2cbd59850 ia=3f0f13ebe943f68b x=3f125a4dc3e32046 ; staged-profile: crc=e21e5ba8 in=3f17661665c4d775 ia=3f0e92acc1776094 x=3f125a4dc3e32046 valid=true | h=ec3fd5f16fd6afab",
    ),
    (
        "c1060/all/imp/resilient",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=b16fc8f33043e5f9",
    ),
    (
        "c1060/all/imp/transient-launch",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=5edeaf046928513a",
    ),
    (
        "c1060/all/imp/transient-h2d",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=efa4b716251fdc3e",
    ),
    (
        "c1060/all/imp/oom-rechunk",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=0/1/0/0 | h=0ea52d83c9d8575d",
    ),
    (
        "c1060/all/imp/quarantine",
        "resilient: crc=537dcc53 in=0000000000000000 ia=3f1ef529cdf2a902 x=3f17d01253e8fe00 rec=0/0/1/0 | h=383ba744fa0888ce",
    ),
    (
        "c1060/all/imp/watchdog-hang",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=1/0/0/0 | h=ba9ffbcdf393d78d",
    ),
    (
        "c1060/all/imp/device-loss",
        "resilient: crc=537dcc53 in=3f393ff0b6250fb9 ia=0000000000000000 x=3f0562b77b1612c6 rec=0/0/0/6 | h=05ecc41b8fb5b8d8",
    ),
    (
        "c1060/all/imp/checkpoint-resume",
        "killed: err=device lost ; resumed: crc=537dcc53 in=3f393ff0b6250fb9 ia=3f1ef529cdf2a902 x=3f1d14e2f4ea15ca rec=0/0/0/0 | h=162c03f6780469d4",
    ),
    (
        "c1060/all/imp/multi-gpu-dead",
        "multi-gpu: crc=b01703f3 alive=1 rec=1/0 | h=6b990f0e0286721a",
    ),
    (
        "variant/c2050/dev/naive",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f25a5d69c02626a | h=ac4ea67d9181866b",
    ),
    (
        "variant/c2050/dev/deep-swap",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f191f5311b3d0bd | h=b866b8731efc9dfc",
    ),
    (
        "variant/c2050/dev/improved",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f12c834478cc7e7 | h=9096a60c34e511b0",
    ),
    (
        "variant/c2050/ext/improved",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f12c834478cc7e7 | h=9096a60c34e511b0",
    ),
    (
        "variant/c2050/ext/+coalesced-io",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f12ccdf669c8fad | h=4770fdea1ec37729",
    ),
    (
        "variant/c2050/ext/+shared-boundary",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f12c834478cc7e7 | h=d52509aafc86f2f6",
    ),
    (
        "variant/c2050/ext/+shared-boundary-long",
        "variant: intra_variant scores=[41] sec=3f3c7ae58a3a6c7b | h=0c4877d200cfedde",
    ),
    (
        "variant/c2050/ext/+continuous-pipeline",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f12892e2437befe | h=d6c890167fe2b24e",
    ),
    (
        "variant/c2050/ext/+all",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f128dd9434786c3 | h=e9da215da0172bda",
    ),
    (
        "variant/c1060/dev/naive",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f40ed20f181e8f3 | h=d7ef4546cf8b2266",
    ),
    (
        "variant/c1060/dev/deep-swap",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f2427c548db72d2 | h=807328df22b3c70b",
    ),
    (
        "variant/c1060/dev/improved",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f235dd29aabc880 | h=0d06aabaec678b56",
    ),
    (
        "variant/c1060/ext/improved",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f235dd29aabc880 | h=0d06aabaec678b56",
    ),
    (
        "variant/c1060/ext/+coalesced-io",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f23661b93604845 | h=8c48b16eff3df1a1",
    ),
    (
        "variant/c1060/ext/+shared-boundary",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f235dd29aabc880 | h=7520941e4d571eed",
    ),
    (
        "variant/c1060/ext/+shared-boundary-long",
        "variant: intra_variant scores=[41] sec=3f4ead4db0d1e9a1 | h=9e7cd58d544aba21",
    ),
    (
        "variant/c1060/ext/+continuous-pipeline",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f2341dc534a994a | h=0a9205f47ac38d51",
    ),
    (
        "variant/c1060/ext/+all",
        "variant: intra_variant scores=[29, 26, 42, 32] sec=3f234a254bff190e | h=1e0c7a9f59f2cccd",
    ),
];

#[test]
fn every_entry_point_matches_the_golden_table() {
    let observed = observed();
    let matches = observed.len() == GOLDEN.len()
        && observed
            .iter()
            .zip(GOLDEN)
            .all(|((name, line, _), (g_name, g_line))| name == g_name && line == g_line);
    if !matches {
        let mut table = String::new();
        let mut details = String::new();
        let mut shown = 0;
        for (name, line, detail) in &observed {
            let golden = GOLDEN.iter().find(|(g, _)| g == name).map(|(_, l)| *l);
            let mark = if golden == Some(line.as_str()) {
                ""
            } else {
                if shown < 3 {
                    let _ = writeln!(details, "--- {name}\n{detail}");
                    shown += 1;
                }
                "    // CHANGED\n"
            };
            let _ = write!(
                table,
                "{mark}    (\n        {name:?},\n        {line:?},\n    ),\n"
            );
        }
        panic!(
            "search results differ from the golden table; observed:\n{table}\n\
             full rendering of the first changed cases:\n{details}"
        );
    }
}
