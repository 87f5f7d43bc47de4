//! Lane workers: real threads executing wave shard-work concurrently.
//!
//! The gateway shards the database round-robin over `devices + 1` lanes
//! ([`cudasw_core::multi_gpu::shard_database`] layout: shard `s`
//! position `j` is database sequence `s + j·k`). Lanes `0..devices` are
//! gpu-sim device lanes; lane `devices` is the **host lane**, computing
//! its shard on the crash-only work-stealing SIMD pool. Each worker owns
//! its lane outright and talks to the dispatcher only through channels,
//! so a wave's shard parts genuinely execute in parallel on the wall
//! clock.
//!
//! Failure semantics mirror the simulated executor, scoped to what a
//! worker thread can do on its own:
//!
//! * a device worker drives one [`ShardLane`], the same staging, staged
//!   fast path and resilient-fallback ladder the simulated executor
//!   drives, with no deadline budget (wall mode bounds tails with
//!   admission, cancellation and the breakers). A lane death — or any
//!   search error, which the worker cannot propagate — reports the
//!   remaining queries as unserved (`None`) and the dispatcher re-owes
//!   them to the host lane;
//! * the host lane runs every search under
//!   [`sw_simd::search_protected`] with the gateway's shared
//!   [`CancelToken`] installed — injected host faults (panics, stalls,
//!   alloc failures) are absorbed bit-identically, and shutdown
//!   cancellation makes queued chunks exit at their first poll instead
//!   of stalling the drain.
//!
//! Scores are exact on every path, so which lane (or fallback) served a
//! shard never changes a response byte.

use crate::gateway::{FrontMsg, GatewayConfig};
use cudasw_core::RecoveryReport;
use gpu_sim::{DeviceSpec, FaultPlan};
use std::sync::mpsc::Sender;
use std::sync::Arc;
use std::time::Instant;
use sw_align::PackedProfile;
use sw_db::Database;
use sw_serve::{LaneOutcome, ShardLane, Wave};
use sw_simd::{search_protected, CancelToken, HostFaultPlan, PoolConfig, Precision, QueryEngine};

/// A command from the dispatcher to a device lane worker.
pub(crate) enum LaneCmd {
    /// Execute the worker's own shard of `wave`.
    Exec { wave_id: u64, wave: Arc<Wave> },
    /// Drain and exit the worker thread.
    Stop,
}

/// A command from the dispatcher to the host lane worker.
pub(crate) enum HostCmd {
    /// Compute shard `shard_of` of `wave`: the host lane's own, or one
    /// owed by a dead or quarantined device lane.
    Exec {
        wave_id: u64,
        wave: Arc<Wave>,
        shard_of: usize,
    },
    /// Drain and exit the worker thread.
    Stop,
}

/// One lane's result for one wave's shard part.
pub(crate) struct LaneDone {
    /// Reporting lane index.
    pub lane: usize,
    /// The wave this part belongs to.
    pub wave_id: u64,
    /// Which shard these scores cover (== `lane` except for owed work).
    pub shard_of: usize,
    /// Per logical request index: shard-order scores, or `None` when the
    /// lane died or was cancelled before serving it.
    pub scores: Vec<Option<Vec<i32>>>,
    /// DP cells computed for this part.
    pub cells: u64,
    /// True when recovery machinery degraded part of the work.
    pub degraded: bool,
    /// True when the device faulted during the wave (breaker signal).
    pub faulted: bool,
    /// True when the lane is (now) dead.
    pub died: bool,
    /// True when shutdown cancellation interrupted the part.
    pub cancelled: bool,
    /// Wall seconds this part occupied the worker.
    pub seconds: f64,
}

/// A spawned worker: its command channel and join handle.
pub(crate) struct LaneHandle<C> {
    pub tx: Sender<C>,
    pub join: std::thread::JoinHandle<()>,
}

/// Spawn a gpu-sim device lane worker over `shard`, with `plan` installed
/// on its device. The lane is built on the worker thread.
pub(crate) fn spawn_device_lane(
    lane: usize,
    spec: &DeviceSpec,
    cfg: &GatewayConfig,
    shard: Database,
    plan: FaultPlan,
    out: Sender<FrontMsg>,
) -> LaneHandle<LaneCmd> {
    let (tx, rx) = std::sync::mpsc::channel();
    let spec = spec.clone();
    let search = cfg.search.clone();
    let policy = cfg.recovery.clone();
    let join = std::thread::spawn(move || {
        let mut shard_lane = ShardLane::new(&spec, &search, shard, plan, &policy);
        while let Ok(LaneCmd::Exec { wave_id, wave }) = rx.recv() {
            let done = exec_device(lane, &mut shard_lane, wave_id, &wave);
            if out.send(FrontMsg::Done(done)).is_err() {
                break;
            }
        }
    });
    LaneHandle { tx, join }
}

/// Serve `lane`'s own shard of every request of `wave` on its device.
fn exec_device(lane: usize, shard_lane: &mut ShardLane, wave_id: u64, wave: &Wave) -> LaneDone {
    let t0 = Instant::now();
    let mut scores: Vec<Option<Vec<i32>>> = vec![None; wave.requests.len()];
    let mut cells = 0u64;
    let mut recovery = RecoveryReport::default();
    let faults_before = shard_lane.fault_count();
    if shard_lane.is_alive() {
        let params = &wave.requests[0].params;
        shard_lane.set_params(params);
        // A staging error leaves the shard un-staged; the resilient
        // search serves it instead.
        let _ = shard_lane.stage(None, &mut recovery);
        for &q in &wave.exec_order {
            if !shard_lane.is_alive() {
                break;
            }
            let query = &wave.requests[q].query;
            let profile = PackedProfile::build(&params.matrix, query);
            match shard_lane.serve(query, &profile, None, &mut recovery) {
                Ok(LaneOutcome::Served {
                    scores: part,
                    cells: c,
                    ..
                }) => {
                    scores[q] = Some(part);
                    cells += c;
                }
                // A search error leaves the lane dead too: the dispatcher
                // re-owes the rest of the wave.
                Ok(LaneOutcome::Died) | Err(_) => break,
            }
        }
    }
    LaneDone {
        lane,
        wave_id,
        shard_of: lane,
        scores,
        cells,
        degraded: recovery.degraded,
        faulted: shard_lane.fault_count() > faults_before,
        died: !shard_lane.is_alive(),
        cancelled: false,
        seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Spawn the host SIMD lane worker. It owns shard `lane` (the last
/// round-robin shard) and keeps every shard so it can absorb owed work
/// from dead device lanes.
pub(crate) fn spawn_host_lane(
    lane: usize,
    shards: Vec<Database>,
    threads: usize,
    faults: HostFaultPlan,
    cancel: CancelToken,
    out: Sender<FrontMsg>,
) -> LaneHandle<HostCmd> {
    let (tx, rx) = std::sync::mpsc::channel();
    let join = std::thread::spawn(move || {
        let worker = HostLaneWorker {
            lane,
            shards,
            threads,
            faults,
            cancel,
        };
        while let Ok(HostCmd::Exec {
            wave_id,
            wave,
            shard_of,
        }) = rx.recv()
        {
            let done = worker.exec(wave_id, &wave, shard_of);
            if out.send(FrontMsg::Done(done)).is_err() {
                break;
            }
        }
    });
    LaneHandle { tx, join }
}

struct HostLaneWorker {
    lane: usize,
    shards: Vec<Database>,
    threads: usize,
    faults: HostFaultPlan,
    cancel: CancelToken,
}

impl HostLaneWorker {
    /// Compute shard `shard_of` for every request of `wave` on the
    /// protected pool. A cancelled search (gateway shutdown) reports the
    /// remaining requests as unserved.
    fn exec(&self, wave_id: u64, wave: &Wave, shard_of: usize) -> LaneDone {
        let t0 = Instant::now();
        let n = wave.requests.len();
        let mut scores: Vec<Option<Vec<i32>>> = vec![None; n];
        let mut cells = 0u64;
        let mut cancelled = false;
        let params = wave.requests[0].params.clone();
        let shard = &self.shards[shard_of.min(self.shards.len().saturating_sub(1))];
        for &q in &wave.exec_order {
            if self.cancel.is_cancelled() {
                cancelled = true;
                break;
            }
            let req = &wave.requests[q];
            if shard.is_empty() {
                scores[q] = Some(Vec::new());
                continue;
            }
            let engine = QueryEngine::new(params.clone(), &req.query);
            let cfg = PoolConfig::new(self.threads, Precision::Adaptive)
                .with_fault_plan(self.faults.clone())
                .with_cancel(self.cancel.clone());
            match search_protected(&engine, shard.sequences(), &cfg) {
                Ok(r) => {
                    sw_simd::record_stats(engine.kind(), &r.stats);
                    cells += shard.total_cells(req.query.len());
                    scores[q] = Some(r.scores);
                }
                Err(_cancelled) => {
                    cancelled = true;
                    break;
                }
            }
        }
        LaneDone {
            lane: self.lane,
            wave_id,
            shard_of,
            scores,
            cells,
            degraded: false,
            faulted: false,
            died: false,
            cancelled,
            seconds: t0.elapsed().as_secs_f64(),
        }
    }
}
