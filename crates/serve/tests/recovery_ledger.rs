//! The service records its own recovery actions through the same
//! `RecoveryReport::note_*` calls as the core driver, so the
//! `cudasw.core.recovery.*` counters always agree with the ledger the
//! service returns.

use cudasw_core::{CudaSwConfig, ImprovedParams};
use gpu_sim::{DeviceSpec, FaultPlan, FaultSite};
use sw_db::synth::database_with_lengths;
use sw_serve::{SearchService, ServeConfig, ServeReport, TraceConfig};

fn serve_config(devices: usize) -> ServeConfig {
    ServeConfig {
        devices,
        search: CudaSwConfig {
            threshold: 100,
            improved: ImprovedParams {
                threads_per_block: 32,
                tile_height: 4,
            },
            ..CudaSwConfig::improved()
        },
        ..ServeConfig::default()
    }
}

/// Serve a small trace with `plans` injected; return the report and the
/// metrics it recorded.
fn serve(devices: usize, plans: &[FaultPlan]) -> (ServeReport, obs::Obs) {
    let db = database_with_lengths("ledger", &[20, 35, 45, 60, 80, 95, 110, 150], 71);
    let trace = TraceConfig::small(6, 5).generate();
    obs::capture(|| {
        let mut service = SearchService::new(
            &DeviceSpec::tesla_c1060(),
            &serve_config(devices),
            &db,
            plans,
        );
        service.run_trace(&trace).unwrap()
    })
}

fn counter(run: &obs::Obs, name: &str) -> f64 {
    run.metrics.counter_sum(name, &[])
}

#[test]
fn staging_retries_reach_the_recovery_counters() {
    // H2D copy 0 on the lane is the first group upload of its staging.
    let (report, run) = serve(
        1,
        &[FaultPlan::none().with_transient(FaultSite::HostToDevice, 0)],
    );
    assert!(report.recovery.retries >= 1, "{:?}", report.recovery);
    assert_eq!(
        counter(&run, "cudasw.core.recovery.retries"),
        report.recovery.retries as f64
    );
    assert_eq!(
        counter(&run, "cudasw.core.recovery.backoff_seconds").to_bits(),
        report.recovery.backoff_seconds.to_bits()
    );
    assert_eq!(
        run.trace
            .instants
            .iter()
            .filter(|i| i.name == "retry")
            .count() as u64,
        report.recovery.retries
    );
}

#[test]
fn redispatch_and_fallback_reach_the_recovery_counters() {
    // Two lanes, one dead at its first launch: its shard is re-dispatched.
    let (report, run) = serve(
        2,
        &[
            FaultPlan::none().with_device_loss(FaultSite::Launch, 0),
            FaultPlan::none(),
        ],
    );
    assert!(report.recovery.shard_redispatches >= 1);
    assert_eq!(
        counter(&run, "cudasw.core.recovery.shard_redispatches"),
        report.recovery.shard_redispatches as f64
    );

    // One lane, dead at its first launch: the host fallback serves it.
    let (report, run) = serve(
        1,
        &[FaultPlan::none().with_device_loss(FaultSite::Launch, 0)],
    );
    assert!(report.recovery.cpu_fallback_seqs >= 1);
    assert_eq!(
        counter(&run, "cudasw.core.recovery.cpu_fallback_seqs"),
        report.recovery.cpu_fallback_seqs as f64
    );
}

#[test]
fn a_lane_lost_while_staging_dies_once_and_makes_no_device_call() {
    // Two lanes; lane 0's H2D copy 0 is the first upload of its staging.
    let db = database_with_lengths("ledger", &[20, 35, 45, 60, 80, 95, 110, 150], 71);
    let trace = TraceConfig::small(6, 5).generate();
    let plans = [FaultPlan::none().with_device_loss(FaultSite::HostToDevice, 0)];
    let ((report, dead), run) = obs::capture(|| {
        let mut service =
            SearchService::new(&DeviceSpec::tesla_c1060(), &serve_config(2), &db, &plans);
        let report = service.run_trace(&trace).unwrap();
        (report, 2 - service.lanes_alive())
    });
    assert_eq!(dead, 1);
    assert_eq!(report.responses.len(), trace.len());
    assert_eq!(
        counter(&run, "cudasw.serve.lane_deaths"),
        dead as f64,
        "one death counted once"
    );
    // Device 0 records on trace lane 1: its failed staging, and no search.
    let on_lane_1 = |name: &str| run.trace.spans_named(name).filter(|s| s.tid == 1).count();
    assert_eq!(on_lane_1("stage_database"), 1);
    assert_eq!(on_lane_1("search"), 0, "the dead lane owes its whole wave");
}
