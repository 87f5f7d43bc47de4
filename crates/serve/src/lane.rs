//! One device shard lane: the staging, fallback and death ladder that
//! both serving schedulers drive.
//!
//! A [`ShardLane`] owns one simulated device's driver (fault plan,
//! integrity checks and watchdog installed from the recovery policy),
//! one round-robin shard of the database
//! ([`cudasw_core::multi_gpu::shard_database`] layout: shard `s` position
//! `j` is database sequence `s + j·k`), the shard's device-resident
//! handle ([`StagedDatabase`]) and whether the device is alive. The
//! ladder, rung by rung:
//!
//! * stage the shard once, retrying transient faults with backoff
//!   ([`RecoveryReport::note_retry`]); a retry whose backoff would
//!   overrun the caller's budget is denied and the lane serves un-staged,
//!   as it does after OOM;
//! * serve each query from the staged handle with a caller-supplied
//!   packed profile, so a wave of `N` compatible queries pays only two
//!   per-query H2D transfers each;
//! * a fault there drops the handle and reruns the query through
//!   [`CudaSwDriver::search_resilient`] under the lane policy (retry,
//!   backoff, OOM re-chunking, quarantine — but no CPU fallback: the
//!   scheduler owns re-dispatch);
//! * a device the ladder cannot save kills the lane: the call returns
//!   [`LaneOutcome::Died`] and the scheduler owes the shard's remaining
//!   work elsewhere.
//!
//! `Err` is kept for non-recoverable device errors (program bugs); they
//! leave the lane dead as well.
//!
//! [`crate::WaveExecutor`] drives one lane per device on the simulated
//! clock; the `sw-gateway` crate drives one per device worker thread.
//! Budgets are relative: seconds a call may take from its start on the
//! simulated device clock ([`RecoveryPolicy::deadline_seconds`] is set
//! from them when the call begins).

use cudasw_core::{
    CudaSwConfig, CudaSwDriver, RecoveryPolicy, RecoveryReport, ResilientSearchResult,
    StagedDatabase,
};
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_align::{PackedProfile, SwParams};
use sw_db::Database;

/// What one query's shard work on a lane came to.
#[derive(Debug, Clone)]
pub enum LaneOutcome {
    /// Served exactly.
    Served {
        /// Shard-order scores.
        scores: Vec<i32>,
        /// Simulated device seconds: kernels, transfers and retry backoff.
        seconds: f64,
        /// DP cells computed.
        cells: u64,
    },
    /// The device died; the lane serves nothing more until it is revived.
    Died,
}

/// One device lane: a driver bound to one database shard.
pub struct ShardLane {
    driver: CudaSwDriver,
    shard: Database,
    staged: Option<StagedDatabase>,
    alive: bool,
    /// The caller's recovery policy without CPU fallback: a dead device
    /// surfaces as [`LaneOutcome::Died`] so the scheduler can re-dispatch
    /// the shard instead of silently computing it on the CPU.
    policy: RecoveryPolicy,
}

impl ShardLane {
    /// A live, un-staged lane of `spec` over `shard`, with `plan`
    /// installed and `policy`'s integrity checks and watchdog armed.
    pub fn new(
        spec: &DeviceSpec,
        config: &CudaSwConfig,
        shard: Database,
        plan: FaultPlan,
        policy: &RecoveryPolicy,
    ) -> Self {
        let mut driver = CudaSwDriver::new(spec.clone(), config.clone());
        driver.dev.inject_faults(plan);
        driver.dev.set_integrity_checks(policy.integrity_checks);
        driver.dev.set_watchdog_cycles(policy.watchdog_cycles);
        Self {
            driver,
            shard,
            staged: None,
            alive: true,
            policy: RecoveryPolicy {
                cpu_fallback: false,
                ..policy.clone()
            },
        }
    }

    /// The lane's own shard.
    pub fn shard(&self) -> &Database {
        &self.shard
    }

    /// True while the device is alive.
    pub fn is_alive(&self) -> bool {
        self.alive
    }

    /// Faults the device has raised so far (the breakers read the
    /// per-wave delta).
    pub fn fault_count(&self) -> u64 {
        self.driver.dev.fault_stats().total()
    }

    /// Score the next queries with `params`.
    pub fn set_params(&mut self, params: &SwParams) {
        self.driver.config.params = params.clone();
    }

    /// Stage the shard unless it is resident already or the lane is dead,
    /// retrying transient faults with backoff. Returns the simulated
    /// seconds spent: staging transfers plus backoff. On persistent
    /// failure the lane either dies (device loss) or stays un-staged (OOM,
    /// retries exhausted, or a retry denied by `budget`); queries are
    /// then served by the resilient search.
    pub fn stage(
        &mut self,
        budget: Option<f64>,
        recovery: &mut RecoveryReport,
    ) -> Result<f64, GpuError> {
        if !self.alive || self.staged.is_some() {
            return Ok(0.0);
        }
        let deadline = budget.map(|b| obs::now() + b);
        let mut seconds = 0.0;
        let mut attempt = 0u32;
        loop {
            match self.driver.stage_database(&self.shard) {
                Ok(staged) => {
                    seconds += staged.staging_seconds();
                    self.staged = Some(staged);
                    obs::counter_add("cudasw.serve.db_stagings", &[], 1.0);
                    return Ok(seconds);
                }
                Err(e) if e.is_transient() && attempt < self.policy.max_retries => {
                    // The first retry waits the base interval; each later
                    // one doubles it.
                    let backoff =
                        self.policy.backoff_base_seconds * f64::from(1u32 << attempt.min(20));
                    if let Some(d) = deadline.filter(|&d| obs::now() + backoff > d) {
                        // Budget exhausted: serve un-staged (per-query
                        // searches still respect their own budgets).
                        recovery.note_budget_denied(&e, d);
                        obs::counter_add("cudasw.serve.budget_denied_stagings", &[], 1.0);
                        obs::counter_add("cudasw.serve.staging_fallbacks", &[], 1.0);
                        return Ok(seconds);
                    }
                    attempt += 1;
                    // Advances the simulated clock by `backoff`.
                    recovery.note_retry(&e, attempt, &self.policy);
                    seconds += backoff;
                    obs::counter_add("cudasw.serve.staging_retries", &[], 1.0);
                }
                Err(GpuError::DeviceLost) => {
                    self.die();
                    return Ok(seconds);
                }
                Err(e) if e.is_recoverable() => {
                    // OOM or retries exhausted: search_resilient re-chunks
                    // around OOM itself.
                    obs::counter_add("cudasw.serve.staging_fallbacks", &[], 1.0);
                    return Ok(seconds);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Serve `query` on the lane's own shard: the staged fast path with
    /// `profile` (built from `query` and the current scoring matrix),
    /// then the resilient search bounded by `budget`. Call on a live lane.
    pub fn serve(
        &mut self,
        query: &[u8],
        profile: &PackedProfile,
        budget: Option<f64>,
        recovery: &mut RecoveryReport,
    ) -> Result<LaneOutcome, GpuError> {
        if let Some(staged) = &self.staged {
            match self
                .driver
                .search_staged_with_profile(query, profile, staged)
            {
                Ok(r) => {
                    return Ok(LaneOutcome::Served {
                        seconds: r.kernel_seconds() + r.transfer_seconds,
                        cells: r.total_cells(),
                        scores: r.scores,
                    })
                }
                Err(e) if e.is_recoverable() => {
                    // The handle may have been invalidated by recovery
                    // machinery; drop it and take the resilient path.
                    self.staged = None;
                    obs::counter_add("cudasw.serve.staged_faults", &[], 1.0);
                }
                Err(e) => {
                    self.alive = false;
                    return Err(e);
                }
            }
        }
        let policy = self.call_policy(budget);
        let attempt = self.driver.search_resilient(query, &self.shard, &policy);
        self.settle(attempt, recovery)
    }

    /// Search another lane's `shard` on this device (re-dispatch of work
    /// a dead or quarantined lane owes), bounded by `budget`.
    pub fn search_foreign(
        &mut self,
        query: &[u8],
        shard: &Database,
        budget: Option<f64>,
        recovery: &mut RecoveryReport,
    ) -> Result<LaneOutcome, GpuError> {
        let policy = self.call_policy(budget);
        let attempt = self.driver.search_resilient(query, shard, &policy);
        self.settle(attempt, recovery)
    }

    /// One revival probe against a dead device: on success the lane comes
    /// back alive with no staged handle (the reset wiped device memory).
    pub fn try_revive(&mut self) -> bool {
        if !self.driver.dev.try_revive() {
            return false;
        }
        self.alive = true;
        self.staged = None;
        obs::counter_add("cudasw.serve.lane_revivals", &[], 1.0);
        true
    }

    /// The lane policy with `budget` turned into an absolute deadline on
    /// the simulated clock, from now.
    fn call_policy(&self, budget: Option<f64>) -> RecoveryPolicy {
        RecoveryPolicy {
            deadline_seconds: budget.map(|b| obs::now() + b),
            ..self.policy.clone()
        }
    }

    /// Fold a resilient search into the ladder's outcome.
    fn settle(
        &mut self,
        attempt: Result<ResilientSearchResult, GpuError>,
        recovery: &mut RecoveryReport,
    ) -> Result<LaneOutcome, GpuError> {
        match attempt {
            Ok(rr) => {
                // search_resilient reset the allocator; any staged handle
                // is stale now.
                self.staged = None;
                recovery.merge(&rr.recovery);
                Ok(LaneOutcome::Served {
                    seconds: rr.result.kernel_seconds()
                        + rr.result.transfer_seconds
                        + rr.recovery.backoff_seconds,
                    cells: rr.result.total_cells(),
                    scores: rr.result.scores,
                })
            }
            Err(e) if e.is_recoverable() => {
                self.die();
                Ok(LaneOutcome::Died)
            }
            Err(e) => {
                self.alive = false;
                Err(e)
            }
        }
    }

    fn die(&mut self) {
        self.alive = false;
        obs::counter_add("cudasw.serve.lane_deaths", &[], 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpu_sim::FaultSite;
    use sw_db::synth::database_with_lengths;

    /// One injected staging transient advances the simulated clock by
    /// exactly `backoff_base_seconds`, the documented first interval.
    #[test]
    fn first_staging_retry_backs_off_by_the_base() {
        let policy = RecoveryPolicy::default();
        // H2D copy 0 is the first group upload; a failed copy moves no
        // simulated time, so the retry starts at the backoff alone.
        let mut lane = ShardLane::new(
            &DeviceSpec::tesla_c2050(),
            &CudaSwConfig::improved(),
            database_with_lengths("lane", &[30, 40, 50], 3),
            FaultPlan::none().with_transient(FaultSite::HostToDevice, 0),
            &policy,
        );
        let mut recovery = RecoveryReport::default();
        let (staged, run) = obs::capture(|| lane.stage(None, &mut recovery));
        assert!(
            staged.is_ok() && lane.staged.is_some(),
            "the retry must stage the shard"
        );
        assert_eq!(recovery.retries, 1);
        let starts: Vec<f64> = run
            .trace
            .spans_named("stage_database")
            .map(|s| s.start)
            .collect();
        assert_eq!(starts.len(), 2, "one failed attempt, one retry");
        assert_eq!(starts[0].to_bits(), 0.0f64.to_bits());
        assert_eq!(
            starts[1].to_bits(),
            policy.backoff_base_seconds.to_bits(),
            "first retry backed off {} s, base is {} s",
            starts[1],
            policy.backoff_base_seconds
        );
    }
}
