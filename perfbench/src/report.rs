//! Metric catalogue, summary statistics and the result line.
//!
//! Every metric carries its unit and the clock it was read from: `wall`
//! is real elapsed time on the measuring host, `cpu` is the CPU time the
//! benchmark process was given (all threads), `sim` is the modelled
//! device's clock (gpu-sim seconds), and `-` marks counts and ratios that
//! have no clock. A simulated quantity is never divided by a wall
//! quantity.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit, clock)` of every end-to-end metric. Every workload
/// reports every one of these in an untraced run; README.md defines each
/// on each workload.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("setup_s", "s", "wall"),
    ("ok_frac", "frac", "-"),
    ("peak_rss_mb", "MB", "-"),
    ("cpu_ms_per_op", "ms", "cpu"),
];

/// `(name, unit, clock)` of every per-layer metric. A traced run reports
/// every one; a layer the workload does not load reads 0.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("db.generate_s", "s", "wall"),
    ("gpu_sim.launches", "count", "-"),
    ("gpu_sim.global_transactions", "count", "-"),
    ("gpu_sim.dram_bytes", "bytes", "-"),
    ("gpu_sim.shared_bank_conflicts", "count", "-"),
    ("gpu_sim.hidden_latency_cycles", "cycles", "sim"),
    ("gpu_sim.block_imbalance", "ratio", "sim"),
    ("core.inter.sim_s", "s", "sim"),
    ("core.intra.sim_s", "s", "sim"),
    ("core.inter.cells", "count", "-"),
    ("core.intra.cells", "count", "-"),
    ("core.intra_time_frac", "frac", "sim"),
    ("core.transfer_sim_s", "s", "sim"),
    ("core.sim_gcups", "GCUPS", "sim"),
    ("core.stage_wall_s", "s", "wall"),
    ("core.search_wall_s", "s", "wall"),
    ("core.sim_host_ns_per_cell", "ns", "wall"),
    ("simd.search_wall_s", "s", "wall"),
    ("simd.host_gcups", "GCUPS", "wall"),
    ("simd.byte_alignments", "count", "-"),
    ("simd.word_reruns", "count", "-"),
    ("simd.byte_useful_frac", "frac", "-"),
    ("simd.lazy_f_iterations", "count", "-"),
    ("simd.steals", "count", "-"),
    ("simd.scaling_eff", "frac", "wall"),
    ("simd.profile_build_us", "us", "wall"),
    ("simd.small_search_ms", "ms", "wall"),
    ("serve.admitted", "count", "-"),
    ("serve.shed", "count", "-"),
    ("serve.waves", "count", "-"),
    ("serve.wave_size_mean", "count", "-"),
    ("gateway.submit_us", "us", "wall"),
    ("gateway.device_wave_ms", "ms", "wall"),
    ("gateway.host_wave_ms", "ms", "wall"),
    ("gateway.residual_ms", "ms", "wall"),
    ("gateway.gen_late_ms_p99", "ms", "wall"),
    ("gateway.owed_to_host", "count", "-"),
    ("gateway.degraded_frac", "frac", "-"),
    ("obs.trace_overhead_frac", "frac", "wall"),
];

/// A value printed for the reader but not part of the reported metric
/// sets: each workload's own headline numbers (`sim_gcups`, `host_gcups`,
/// `p99_ms`, ...) and sample counts, with their unit and clock.
#[derive(Debug, Clone)]
pub struct Note {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: &'static str,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// False when any output differed from its reference or the
    /// exactly-once contract broke.
    pub correct: bool,
    /// Why `correct` is false (empty otherwise).
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Gated metrics by name (untraced runs).
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Reader-facing workload metrics.
    pub notes: Vec<Note>,
}

impl RunResult {
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    /// Record a correctness failure.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        if self.errors.len() < 20 {
            self.errors.push(why);
        }
    }

    pub fn note(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        clock: &'static str,
    ) {
        self.notes.push(Note {
            name,
            value,
            unit,
            clock,
        });
    }

    /// Print the human-readable table, then the result line (always the
    /// last line of standard output). A traced run reports the per-layer
    /// set, an untraced one the end-to-end set.
    pub fn print(&self, traced: bool) {
        let (catalogue, values, missing) = if traced {
            (PER_LAYER, &self.per_layer, 0.0)
        } else {
            (END_TO_END, &self.end_to_end, f64::NAN)
        };
        let set: Vec<(&str, &str, &str, f64)> = catalogue
            .iter()
            .map(|&(n, u, c)| (n, u, c, values.get(n).copied().unwrap_or(missing)))
            .collect();

        let mut out = String::new();
        for e in &self.errors {
            let _ = writeln!(out, "# MISMATCH: {e}");
        }
        let _ = writeln!(
            out,
            "# {:<30} {:>16} {:<6} clock",
            "metric", "value", "unit"
        );
        let notes = self
            .notes
            .iter()
            .map(|n| (n.name, n.unit, n.clock, n.value));
        for (name, unit, clock, value) in set.iter().copied().chain(notes) {
            let _ = writeln!(out, "# {name:<30} {value:>16.6} {unit:<6} {clock}");
        }

        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, unit, _, value)) in set.iter().enumerate() {
            if i > 0 {
                json.push_str(", ");
            }
            let _ = write!(
                json,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        json.push_str("}}");
        print!("{out}");
        println!("{json}");
    }
}

/// JSON has no infinities: a latency that never completed (a shed
/// request at the percentile) is written as 1e12, far past any bound.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "null".to_string()
    } else {
        "1e12".to_string()
    }
}

/// Nearest-rank percentile `p` ∈ [0, 100] of `values` (NaN when empty).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// CPU seconds (user + system) this process has used so far, over every
/// thread it has run, finished threads included (`/proc/self/stat`).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces; the fields after it do not.
            let rest = &s[s.rfind(')')? + 1..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            // Fields 14 and 15 of the line: utime and stime.
            let utime = f.get(11)?.parse::<f64>().ok()?;
            let stime = f.get(12)?.parse::<f64>().ok()?;
            Some((utime + stime) / USER_HZ)
        })
        .unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn process_cpu_time_grows_with_work() {
        let before = process_cpu_s();
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
        }
        let used = process_cpu_s() - before;
        assert!(used >= 0.05, "100 ms of spinning read as {used} CPU s");
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text = include_str!("../../BENCHMARK.json");
        let doc = obs::json::parse(text).expect("BENCHMARK.json parses");
        let entries = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(|v| v.as_str()).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|&(n, u, _)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(entries("end_to_end"), own(END_TO_END));
        assert_eq!(entries("per_layer"), own(PER_LAYER));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.0).collect();
        names.extend(PER_LAYER.iter().map(|m| m.0));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
