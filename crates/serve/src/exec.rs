//! Wave scheduling over resilient multi-GPU shard lanes.
//!
//! One [`ShardLane`] per simulated device, each owning one round-robin
//! shard of the database and the per-query recovery ladder (staging,
//! staged fast path, resilient-search fallback, lane death). The
//! executor keeps only scheduling:
//!
//! * a lane whose device dies has its shard re-dispatched to a survivor;
//! * with no survivors left the shard is computed on the host SIMD
//!   oracle (when the policy allows CPU fallback).
//!
//! On top of the per-query ladder sits cross-query service resilience
//! (see [`crate::health`]):
//!
//! * every lane carries a circuit breaker fed by its wave-level fault
//!   deltas — an open breaker routes the lane's shard work through the
//!   owed machinery instead of paying the retry ladder every wave;
//! * a *dead* lane's breaker paces revival probes
//!   ([`ShardLane::try_revive`]); a revived lane restages and re-earns
//!   trust through half-open;
//! * a straggling lane (latency EWMA past the hedge threshold) has its
//!   queries speculatively re-issued on the host SIMD engine —
//!   first-result-wins, committed exactly once;
//! * with deadline propagation on, every device dispatch carries the
//!   query's remaining EDF budget
//!   ([`cudasw_core::RecoveryPolicy::deadline_seconds`]) so retries and
//!   redispatches degrade instead of overrunning it.
//!
//! Scores are exact integer Smith-Waterman scores on every path, so a
//! served result is bit-identical to a standalone resilient search no
//! matter which ladder rung produced it.

use crate::batch::Wave;
use crate::cache::ProfileCache;
use crate::health::HealthTracker;
use crate::lane::{LaneOutcome, ShardLane};
use crate::request::SearchRequest;
use crate::service::ServeConfig;
use cudasw_core::multi_gpu::shard_database;
use cudasw_core::RecoveryReport;
use gpu_sim::{DeviceSpec, FaultPlan, GpuError};
use sw_db::Database;
use sw_simd::{search_uncancelled, HostFaultPlan, PoolConfig, Precision, QueryEngine};

/// Host SIMD throughput the hedge cost model assumes, cells/second. The
/// hedge only needs a *relative* cost to decide the first finisher, and
/// a fixed constant keeps replays deterministic.
const HEDGE_HOST_CUPS: f64 = 1.0e9;

/// A speculative host-side result for one query's shard work.
struct HedgeResult {
    /// Shard-order scores from the host SIMD engine.
    scores: Vec<i32>,
    /// Modelled host completion time, service seconds.
    seconds: f64,
}

/// What one wave took to serve.
#[derive(Debug, Clone)]
pub struct WaveOutcome {
    /// Per-request full-database scores, indexed like `wave.requests`
    /// (logical order); scores within follow `db.sequences()` order.
    pub scores: Vec<Vec<i32>>,
    /// Aggregated recovery story (all lanes, redispatch and CPU fallback
    /// included).
    pub recovery: RecoveryReport,
    /// Simulated wall-clock the wave occupied the farm: the slowest
    /// lane's staging + kernel + transfer + backoff seconds (lanes run
    /// concurrently).
    pub service_seconds: f64,
    /// DP cells computed on devices during the wave.
    pub total_cells: u64,
}

/// A wave in progress: what its lanes have produced so far.
struct WaveState {
    /// Lanes, i.e. the shard stride `k`.
    k: usize,
    /// Per-request full-database scores, logical order.
    scores: Vec<Vec<i32>>,
    recovery: RecoveryReport,
    /// Simulated seconds each lane has been busy this wave.
    lane_seconds: Vec<f64>,
    total_cells: u64,
    /// (lane, request-index) pairs whose shard scores are still owed
    /// because the lane died mid-wave, was already dead, or is
    /// quarantined by its breaker.
    owed: Vec<(usize, usize)>,
}

impl WaveState {
    /// Write shard `s`'s scores for request `q` into their database slots.
    fn place(&mut self, q: usize, s: usize, part: &[i32]) {
        for (j, &v) in part.iter().enumerate() {
            self.scores[q][s + j * self.k] = v;
        }
    }

    /// Owe shard `s`'s work for every request in `requests`.
    fn owe(&mut self, s: usize, requests: &[usize]) {
        self.owed.extend(requests.iter().map(|&q| (s, q)));
    }
}

/// The scheduler's execution backend: a farm of resilient shard lanes.
pub struct WaveExecutor {
    lanes: Vec<ShardLane>,
    /// Compute owed work on the host SIMD oracle once no lane is left.
    cpu_fallback: bool,
    db_len: usize,
    health: HealthTracker,
    propagate_deadlines: bool,
    /// Seeded fault schedule for host-lane work (hedges, fallbacks):
    /// inert in production, a storm in the chaos soak. Host lanes run in
    /// the crash-only SIMD pool, so injected panics/stalls/alloc failures
    /// are absorbed without changing a score.
    host_faults: HostFaultPlan,
}

impl WaveExecutor {
    /// Bring up `cfg.devices` lanes of `spec` over round-robin shards of
    /// `db`, installing `plans[i]` on lane `i` (missing entries get
    /// [`FaultPlan::none`]).
    pub fn new(spec: &DeviceSpec, cfg: &ServeConfig, db: &Database, plans: &[FaultPlan]) -> Self {
        let lanes: Vec<ShardLane> = shard_database(db, cfg.devices.max(1))
            .into_iter()
            .enumerate()
            .map(|(s, shard)| {
                let plan = plans.get(s).cloned().unwrap_or_else(FaultPlan::none);
                ShardLane::new(spec, &cfg.search, shard, plan, &cfg.recovery)
            })
            .collect();
        Self {
            health: HealthTracker::new(lanes.len(), cfg.health.clone()),
            lanes,
            cpu_fallback: cfg.recovery.cpu_fallback,
            db_len: db.len(),
            propagate_deadlines: cfg.propagate_deadlines,
            host_faults: cfg.host_faults.clone(),
        }
    }

    /// Pool config for host-lane work: single worker (the service loop is
    /// a deterministic discrete-event simulation), full fault domain.
    fn host_pool_config(&self) -> PoolConfig {
        PoolConfig::new(1, Precision::Adaptive).with_fault_plan(self.host_faults.clone())
    }

    /// Number of lanes still alive.
    pub fn lanes_alive(&self) -> usize {
        self.lanes.iter().filter(|l| l.is_alive()).count()
    }

    /// Number of lanes the executor started with.
    pub fn lanes_total(&self) -> usize {
        self.lanes.len()
    }

    /// The cross-query health tracker (breaker states, fault scores).
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The deadline budget of a device call for `req` that starts
    /// `service_elapsed` seconds into the wave: the query's remaining EDF
    /// budget, in seconds from the call's start. `None` when deadline
    /// propagation is off.
    fn budget(&self, req: &SearchRequest, service_elapsed: f64) -> Option<f64> {
        self.propagate_deadlines
            .then(|| (req.deadline_seconds - service_elapsed).max(0.0))
    }

    /// Serve every request of `wave` (single parameter class, enforced by
    /// the batcher) and return full-database scores per request. `now` is
    /// the service clock at dispatch — it drives breaker cooldowns,
    /// revival probes and deadline budgets.
    ///
    /// `Err` is reserved for unrecoverable conditions: a non-recoverable
    /// device error (a program bug), or every lane dead with CPU fallback
    /// disabled by the policy.
    pub fn execute_wave(
        &mut self,
        wave: &Wave,
        cache: &mut ProfileCache,
        now: f64,
    ) -> Result<WaveOutcome, GpuError> {
        let n = wave.requests.len();
        if n == 0 {
            return Ok(WaveOutcome {
                scores: Vec::new(),
                recovery: RecoveryReport::default(),
                service_seconds: 0.0,
                total_cells: 0,
            });
        }
        let sp = obs::span("wave", "serve");
        let k = self.lanes.len();
        let params = &wave.requests[0].params;
        // One profile per request, cache-shared across all lanes.
        let profiles: Vec<_> = wave
            .requests
            .iter()
            .map(|r| cache.get_or_build(&params.matrix, &r.query))
            .collect();
        let mut st = WaveState {
            k,
            scores: vec![vec![0i32; self.db_len]; n],
            recovery: RecoveryReport::default(),
            lane_seconds: vec![0.0; k],
            total_cells: 0,
            owed: Vec::new(),
        };

        for s in 0..k {
            if !self.lanes[s].is_alive() {
                // The breaker paces revival probes against the dead
                // device; until one succeeds the shard work is owed.
                if self.health.admits(s, now) {
                    if self.lanes[s].try_revive() {
                        // Back with no staged handle; re-earns trust
                        // through half-open.
                        self.health.note_revival(s, now);
                    } else {
                        self.health.observe_death(s, now);
                    }
                }
                if !self.lanes[s].is_alive() {
                    st.owe(s, &wave.exec_order);
                    continue;
                }
            } else if !self.health.admits(s, now) {
                // Quarantined: route around the lane, no device traffic.
                obs::counter_add("cudasw.serve.breaker_skips", &[], 1.0);
                st.owe(s, &wave.exec_order);
                continue;
            }
            let faults_before = self.lanes[s].fault_count();
            let prev_lane = obs::set_lane(s as u32 + 1);
            let outcome = self.run_lane_wave(s, wave, now, &profiles, &mut st);
            obs::set_lane(prev_lane);
            outcome?;
            if self.lanes[s].is_alive() {
                let faulted = self.lanes[s].fault_count() > faults_before;
                self.health.observe_wave(s, faulted, now);
            } else {
                self.health.observe_death(s, now);
            }
        }

        self.settle_owed(wave, now, &mut st)?;

        let service_seconds = st.lane_seconds.iter().cloned().fold(0.0, f64::max);
        sp.end_with(&[
            ("requests", &n.to_string()),
            ("lanes", &self.lanes_alive().to_string()),
        ]);
        Ok(WaveOutcome {
            scores: st.scores,
            recovery: st.recovery,
            service_seconds,
            total_cells: st.total_cells,
        })
    }

    /// Run every wave query on lane `s`, staged fast path first. Pushes
    /// un-served (lane died) work onto `st.owed`; a lane that dies while
    /// staging owes the whole wave. Queries on a straggling lane are
    /// hedged on the host SIMD engine, first-result-wins.
    fn run_lane_wave(
        &mut self,
        s: usize,
        wave: &Wave,
        now: f64,
        profiles: &[std::rc::Rc<sw_align::PackedProfile>],
        st: &mut WaveState,
    ) -> Result<(), GpuError> {
        let params = &wave.requests[0].params;
        self.lanes[s].set_params(params);
        // The wave is EDF-sorted, so requests[0] carries the tightest
        // deadline — the budget staging must respect.
        let budget = self.budget(&wave.requests[0], now);
        st.lane_seconds[s] += self.lanes[s].stage(budget, &mut st.recovery)?;
        if !self.lanes[s].is_alive() {
            st.owe(s, &wave.exec_order);
            return Ok(());
        }
        for (pos, &q) in wave.exec_order.iter().enumerate() {
            let req = &wave.requests[q];
            // Hedged dispatch: a straggling lane gets a speculative host
            // twin for this query before the device attempt, budgeted
            // against the query's remaining deadline.
            let hedge =
                self.issue_hedge(s, req, params, now + st.lane_seconds[s], &mut st.recovery);
            let gpu_start = st.lane_seconds[s];
            let budget = self.budget(req, now + gpu_start);
            let served = self.lanes[s].serve(&req.query, &profiles[q], budget, &mut st.recovery)?;
            let gpu_secs = match served {
                LaneOutcome::Served {
                    scores,
                    seconds,
                    cells,
                } => {
                    st.place(q, s, &scores);
                    st.total_cells += cells;
                    seconds
                }
                LaneOutcome::Died => {
                    // If a hedge is in flight it covers this query; the
                    // rest of the wave is owed to the survivors either way.
                    let rest = if let Some(h) = hedge {
                        commit_hedge(q, s, &h, st);
                        st.lane_seconds[s] = gpu_start + h.seconds;
                        pos + 1
                    } else {
                        pos
                    };
                    st.owe(s, &wave.exec_order[rest..]);
                    return Ok(());
                }
            };
            // Exactly-once commitment: the first finisher's result stands.
            // Scores are bit-identical on both paths, so "which won" only
            // decides the lane's clock (and the degraded flag).
            match hedge {
                Some(h) if h.seconds < gpu_secs => {
                    commit_hedge(q, s, &h, st);
                    st.lane_seconds[s] = gpu_start + h.seconds;
                }
                Some(_) => {
                    obs::counter_add("cudasw.serve.hedge.wins", &[("winner", "lane")], 1.0);
                    st.lane_seconds[s] = gpu_start + gpu_secs;
                }
                None => st.lane_seconds[s] = gpu_start + gpu_secs,
            }
            self.health
                .observe_latency(s, st.lane_seconds[s] - gpu_start);
        }
        Ok(())
    }

    /// Speculatively compute `req`'s shard scores on the host SIMD engine
    /// when lane `s` is straggling. Returns `None` when the hedge trigger
    /// is quiet — or when the modelled host cost would overrun the
    /// query's remaining deadline budget (a hedge that cannot finish in
    /// budget only burns CPU; the denial is the host-lane twin of the
    /// device ladder's `BudgetDenied`).
    fn issue_hedge(
        &mut self,
        s: usize,
        req: &SearchRequest,
        params: &sw_align::SwParams,
        service_elapsed: f64,
        recovery: &mut RecoveryReport,
    ) -> Option<HedgeResult> {
        let shard = self.lanes[s].shard();
        if !self.health.should_hedge(s) || shard.is_empty() {
            return None;
        }
        let seconds = shard.total_cells(req.query.len()) as f64 / HEDGE_HOST_CUPS;
        if self.propagate_deadlines {
            let left = req.deadline_seconds - service_elapsed;
            if seconds > left {
                recovery.note_host_budget_denied(seconds, left);
                return None;
            }
        }
        obs::counter_add("cudasw.serve.hedge.issued", &[], 1.0);
        // The hedge runs inside the crash-only pool: panic quarantine,
        // admission, and any injected host faults, bit-identical scores.
        let engine = QueryEngine::new(params.clone(), &req.query);
        let r = search_uncancelled(&engine, shard.sequences(), &self.host_pool_config());
        sw_simd::record_stats(engine.kind(), &r.stats);
        Some(HedgeResult {
            scores: r.scores,
            seconds,
        })
    }

    /// Serve shard work owed by dead or quarantined lanes: re-dispatch to
    /// the healthiest admitted survivor, falling back to the host SIMD
    /// oracle when no lane is left (or the deadline budget is spent).
    fn settle_owed(&mut self, wave: &Wave, now: f64, st: &mut WaveState) -> Result<(), GpuError> {
        let k = self.lanes.len();
        let params = &wave.requests[0].params;
        for (dead, q) in std::mem::take(&mut st.owed) {
            let req = &wave.requests[q];
            let shard = self.lanes[dead].shard().clone();
            if shard.is_empty() {
                continue;
            }
            let mut served = false;
            // Absolute budget for this query; once spent, stop burning
            // device time on redispatch and degrade straight to the host.
            let budget = if self.cpu_fallback {
                self.budget(req, now).map(|b| obs::now() + b)
            } else {
                None
            };
            while !budget.is_some_and(|d| obs::now() >= d) {
                // The health tracker ranks survivors by fault score;
                // lanes with open breakers only take owed work when
                // nothing healthier remains (better a suspect device
                // than a guaranteed host-speed answer).
                let alive: Vec<bool> = self.lanes.iter().map(ShardLane::is_alive).collect();
                let Some(t) = self
                    .health
                    .preferred(&alive, dead)
                    .or_else(|| (0..k).find(|&t| t != dead && alive[t]))
                else {
                    break;
                };
                let prev_lane = obs::set_lane(t as u32 + 1);
                let budget_t = self.budget(req, now + st.lane_seconds[t]);
                self.lanes[t].set_params(params);
                let attempt =
                    self.lanes[t].search_foreign(&req.query, &shard, budget_t, &mut st.recovery);
                obs::set_lane(prev_lane);
                match attempt? {
                    LaneOutcome::Served {
                        scores,
                        seconds,
                        cells,
                    } => {
                        st.place(q, dead, &scores);
                        st.lane_seconds[t] += seconds;
                        st.total_cells += cells;
                        st.recovery.note_redispatch(dead, t, shard.len());
                        obs::counter_add("cudasw.serve.redispatches", &[], 1.0);
                        served = true;
                        break;
                    }
                    LaneOutcome::Died => self.health.observe_death(t, now),
                }
            }
            if served {
                continue;
            }
            // No survivors (or no budget left for device work): host SIMD
            // oracle, if the policy allows it.
            if !self.cpu_fallback {
                return Err(GpuError::DeviceLost);
            }
            // One dispatched engine per owed shard: profiles are built
            // once and reused across the shard's sequences. The fallback
            // runs in the crash-only pool — the service's last line of
            // defence must itself survive panics and pressure.
            let engine = QueryEngine::new(params.clone(), &req.query);
            let r = search_uncancelled(&engine, shard.sequences(), &self.host_pool_config());
            st.place(q, dead, &r.scores);
            sw_simd::record_stats(engine.kind(), &r.stats);
            st.recovery.note_cpu_fallback(shard.len());
            obs::counter_add("cudasw.serve.cpu_fallback_seqs", &[], shard.len() as f64);
        }
        Ok(())
    }
}

/// Commit a winning hedge for query `q` on lane `s`'s shard slots.
fn commit_hedge(q: usize, s: usize, hedge: &HedgeResult, st: &mut WaveState) {
    st.place(q, s, &hedge.scores);
    st.recovery.degraded = true;
    obs::counter_add("cudasw.serve.hedge.wins", &[("winner", "host")], 1.0);
}
