//! Device-lane fault paths of the wall-clock gateway.
//!
//! Two gpu-sim device lanes plus the host SIMD lane serve the
//! `clock_modes` database and trace under injected device faults. For
//! every plan:
//!
//! * every ticket resolves exactly once, as served;
//! * served scores equal a standalone resilient search;
//! * `lane_deaths` equals the number of devices lost, and a lost device
//!   owes its shard work to the host lane;
//! * responses are degraded exactly when a shard was served off its
//!   device: never without a device loss, always for the waves after
//!   one.

use cudasw_core::{CudaSwConfig, CudaSwDriver, ImprovedParams, RecoveryPolicy};
use gpu_sim::{DeviceSpec, FaultPlan, FaultRates, FaultSite};
use sw_db::synth::database_with_lengths;
use sw_db::Database;
use sw_gateway::loadgen::drive;
use sw_gateway::{Gateway, GatewayConfig, GatewayResponse, Outcome};
use sw_serve::TraceConfig;

fn spec() -> DeviceSpec {
    DeviceSpec::tesla_c1060()
}

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

fn test_db() -> Database {
    database_with_lengths(
        "gateway-db",
        &[20, 35, 45, 60, 80, 95, 110, 120, 150, 300],
        71,
    )
}

/// Ground truth: a standalone resilient search on a clean device.
fn standalone_scores(query: &[u8], db: &Database) -> Vec<i32> {
    let mut driver = CudaSwDriver::new(spec(), search_config());
    driver
        .search_resilient(query, db, &RecoveryPolicy::default())
        .expect("clean standalone search")
        .result
        .scores
}

/// Serve the trace with `plans` on the device lanes; check exactly-once
/// resolution and exact scores, and return the responses in completion
/// order with the run's lane deaths and owed parts.
fn serve(plans: &[FaultPlan]) -> (Vec<GatewayResponse>, u64, u64) {
    let db = test_db();
    let trace = TraceConfig {
        mean_interarrival_seconds: 2.0e-3,
        deadline_slack_seconds: (30.0, 60.0),
        tenants: vec!["tenant-a".into(), "tenant-b".into()],
        ..TraceConfig::small(24, 9)
    }
    .generate();
    let cfg = GatewayConfig {
        devices: 2,
        host_threads: 1,
        search: search_config(),
        drain_grace_seconds: 60.0,
        ..GatewayConfig::default()
    };
    let gateway = Gateway::start(&spec(), &cfg, &db, plans);
    let tickets = drive(&gateway.handle(), &trace);
    let mut served = Vec::new();
    for t in tickets {
        let id = t.id();
        let (outcome, extra) = t.wait_counting_duplicates();
        assert_eq!(extra, 0, "request {id} resolved more than once");
        match outcome {
            Outcome::Served(resp) => {
                assert_eq!(resp.id, id);
                served.push(resp);
            }
            other => panic!("request {id} not served: {other:?}"),
        }
    }
    let report = gateway.shutdown();
    assert!(report.sheds.is_empty() && report.aborted.is_empty());
    assert!(!report.forced_cancel);
    assert_eq!(report.responses.len(), trace.len());
    assert_eq!(
        report
            .metrics
            .counter("cudasw.gateway.duplicate_commits", &[]),
        0.0
    );
    for resp in &served {
        let req = trace.iter().find(|r| r.id == resp.id).expect("trace id");
        assert_eq!(
            resp.scores,
            standalone_scores(&req.query, &db),
            "request {}: scores must match a standalone resilient search",
            resp.id
        );
    }
    // Completion order, as the dispatcher resolved the tickets.
    let order: Vec<u64> = report.responses.iter().map(|r| r.id).collect();
    served.sort_by_key(|r| order.iter().position(|&id| id == r.id));
    for (resp, summary) in served.iter().zip(&report.responses) {
        assert_eq!(resp.degraded, summary.degraded);
    }
    (served, report.lane_deaths, report.owed_to_host)
}

fn degraded(responses: &[GatewayResponse]) -> usize {
    responses.iter().filter(|r| r.degraded).count()
}

#[test]
fn device_lost_mid_search_owes_its_shard_to_the_host_lane() {
    let (responses, deaths, owed) = serve(&[
        FaultPlan::none().with_device_loss(FaultSite::Launch, 2),
        FaultPlan::random(0xFA17, FaultRates::default()),
    ]);
    assert_eq!(deaths, 1, "one device lost");
    assert!(owed > 0, "the dead lane's shard is owed to the host lane");
    // Every wave from the death on is served partly off-device, and the
    // last wave completes after the death.
    assert!(degraded(&responses) >= 1);
    assert!(responses.last().is_some_and(|r| r.degraded));
}

#[test]
fn device_lost_while_staging_serves_every_wave_off_device() {
    // H2D copy 0 is the first upload of the lane's staging: the device
    // dies before it serves anything.
    let (responses, deaths, owed) =
        serve(&[FaultPlan::none().with_device_loss(FaultSite::HostToDevice, 0)]);
    assert_eq!(deaths, 1, "one device lost");
    assert!(owed > 0, "the dead lane's shard is owed to the host lane");
    assert_eq!(degraded(&responses), responses.len());
}

#[test]
fn staging_transient_is_retried_on_the_device() {
    let (responses, deaths, owed) =
        serve(&[FaultPlan::none().with_transient(FaultSite::HostToDevice, 0)]);
    assert_eq!(deaths, 0);
    assert_eq!(owed, 0, "a retried staging owes nothing");
    assert_eq!(degraded(&responses), 0);
}

#[test]
fn fault_free_run_serves_every_shard_on_its_device() {
    let (responses, deaths, owed) = serve(&[]);
    assert_eq!(deaths, 0);
    assert_eq!(owed, 0);
    assert_eq!(degraded(&responses), 0);
}
