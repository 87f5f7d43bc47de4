//! The device-optimization perf trajectory (`BENCH_device.json`, schema
//! `cudasw.bench.device/v1`).
//!
//! Like `BENCH_host.json` (see [`super::host_trajectory`]) the document
//! is **append-only**: one entry per measured run of the §VII
//! optimization matrix, keyed by `(git rev, workload config, device)`,
//! so the committed file *is* the device-perf history of the repo.
//!
//! Two gate families read the trajectory in `verify.sh`:
//!
//! * **invariant gates** ([`invariant_gates`]) — properties every entry
//!   must satisfy on its own, fresh or committed: identical score CRCs
//!   and cell counts across the matrix, the counted per-optimization
//!   claims (staging cuts global transactions ≥
//!   [`STAGING_MIN_TRANSACTION_CUT`]×, fusion hides stalls the baseline
//!   exposes, streaming hides copy time without changing bytes, balance
//!   never worsens block skew), and the all-on row beating the baseline.
//! * **regression comparator** ([`regressions`]) — the fresh entry
//!   against the most recent committed entry with the same config and
//!   device, row by row: GCUPs must not drop beyond [`GCUPS_TOLERANCE`]
//!   and global transactions must not grow beyond
//!   [`TRANSACTION_TOLERANCE`].
//!
//! Every other column is on the simulated clock or a count. The one
//! exception is `sim_host_ns_per_cell` (`{"inter", "intra"}`): the host
//! wall nanoseconds the simulator spent per simulated cell of each
//! kernel. It records what the simulator costs to run, varies with the
//! measuring machine, and no gate reads it. Entries written before it
//! existed omit it.

use super::device_opt::{DeviceOptResult, DeviceOptRow, HostNsPerCell};
use obs::json::{escape, parse, Json};

/// JSON schema tag of the trajectory document.
pub const SCHEMA: &str = "cudasw.bench.device/v1";

/// Allowed fractional GCUPs drop vs the committed baseline row. The
/// simulated clock is deterministic, so this only has to absorb model
/// retunes, not wall-clock noise.
pub const GCUPS_TOLERANCE: f64 = 0.25;

/// Allowed fractional growth of a row's inter-task global transactions
/// vs the committed baseline row.
pub const TRANSACTION_TOLERANCE: f64 = 0.05;

/// Minimum factor by which boundary staging must cut inter-task global
/// transactions (the §VII claim: strip-boundary traffic moves to shared
/// memory, leaving only per-strip edge words).
pub const STAGING_MIN_TRANSACTION_CUT: f64 = 4.0;

/// Minimum factor by which SaLoBa balance must cut intra-task block
/// imbalance — applied only when the baseline skew is at least
/// [`BALANCE_GATE_MIN_SKEW`] (a near-uniform workload has nothing to
/// cut; the non-regression half of the gate always applies).
pub const BALANCE_MIN_IMBALANCE_CUT: f64 = 1.5;

/// Baseline max/min block-cycle skew below which the balance *cut* gate
/// does not apply.
pub const BALANCE_GATE_MIN_SKEW: f64 = 2.0;

/// Relative tolerance on the streamed-copy accounting identity
/// `exposed + hidden == synchronous` (float summation only).
pub const ACCOUNTING_TOLERANCE: f64 = 1e-9;

/// One measured run in the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEntry {
    /// Git revision (short hash) the run was measured at.
    pub rev: String,
    /// Stable workload key (`devopt-<mode>-<db>x<query>`).
    pub config: String,
    /// Device the matrix ran on.
    pub device: String,
    /// Database sequences.
    pub db_size: usize,
    /// Query length.
    pub query_len: usize,
    /// DP cells of one database pass.
    pub cells: u64,
    /// One row per measured optimization configuration.
    pub rows: Vec<DeviceOptRow>,
}

impl TrajectoryEntry {
    /// Wrap a fresh measurement for the trajectory.
    pub fn from_result(r: &DeviceOptResult, rev: &str) -> Self {
        Self {
            rev: rev.to_string(),
            config: r.config.clone(),
            device: r.device.clone(),
            db_size: r.db_size,
            query_len: r.query_len,
            cells: r.cells,
            rows: r.rows.clone(),
        }
    }

    /// The key that decides replace-vs-append on merge.
    fn key(&self) -> (String, String, String) {
        (self.rev.clone(), self.config.clone(), self.device.clone())
    }

    fn row(&self, label: &str) -> Option<&DeviceOptRow> {
        self.rows.iter().find(|r| r.label == label)
    }
}

/// The whole append-only document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trajectory {
    /// Entries in file order (oldest first).
    pub entries: Vec<TrajectoryEntry>,
}

impl Trajectory {
    /// Append a run, replacing a prior entry with the identical
    /// `(rev, config, device)` key, never touching any other entry.
    pub fn append(&mut self, entry: TrajectoryEntry) {
        if let Some(existing) = self.entries.iter_mut().find(|e| e.key() == entry.key()) {
            *existing = entry;
        } else {
            self.entries.push(entry);
        }
    }

    /// Most recent committed entry comparable to `new` (same workload
    /// config and device).
    pub fn baseline_for<'a>(&'a self, new: &TrajectoryEntry) -> Option<&'a TrajectoryEntry> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.config == new.config && e.device == new.device)
    }

    /// Serialize the document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"schema\": \"{SCHEMA}\",\n"));
        out.push_str("  \"entries\": [\n");
        for (i, e) in self.entries.iter().enumerate() {
            out.push_str(&entry_to_json(e, "    "));
            out.push_str(if i + 1 == self.entries.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Parse a trajectory file.
    pub fn parse(text: &str) -> Result<Trajectory, String> {
        let doc = parse(text)?;
        match doc.get("schema").and_then(|s| s.as_str()) {
            Some(s) if s == SCHEMA => {
                let entries = doc
                    .get("entries")
                    .and_then(|e| e.as_arr())
                    .ok_or("document without entries array")?;
                Ok(Trajectory {
                    entries: entries
                        .iter()
                        .map(entry_from_json)
                        .collect::<Result<_, _>>()?,
                })
            }
            Some(other) => Err(format!("unknown device bench schema {other:?}")),
            None => Err("document has no schema field".to_string()),
        }
    }
}

fn entry_to_json(e: &TrajectoryEntry, indent: &str) -> String {
    let mut out = format!("{indent}{{\n");
    out.push_str(&format!("{indent}  \"rev\": \"{}\",\n", escape(&e.rev)));
    out.push_str(&format!(
        "{indent}  \"config\": \"{}\",\n",
        escape(&e.config)
    ));
    out.push_str(&format!(
        "{indent}  \"device\": \"{}\",\n",
        escape(&e.device)
    ));
    out.push_str(&format!("{indent}  \"db_size\": {},\n", e.db_size));
    out.push_str(&format!("{indent}  \"query_len\": {},\n", e.query_len));
    out.push_str(&format!("{indent}  \"cells\": {},\n", e.cells));
    out.push_str(&format!("{indent}  \"rows\": [\n"));
    for (i, r) in e.rows.iter().enumerate() {
        out.push_str(&format!(
            "{indent}    {{\"config\": \"{}\", \"gcups\": {:.4}, \
             \"kernel_seconds\": {:.9}, \"cells\": {}, \
             \"inter_global_transactions\": {}, \"hidden_latency_cycles\": {}, \
             \"h2d_seconds\": {:.9}, \"h2d_hidden_seconds\": {:.9}, \
             \"h2d_bytes\": {}, \"intra_imbalance\": {:.4}, \
             \"score_crc\": {}{}}}{}\n",
            escape(&r.label),
            r.gcups,
            r.kernel_seconds,
            r.cells,
            r.inter_global_transactions,
            r.hidden_latency_cycles,
            r.h2d_seconds,
            r.h2d_hidden_seconds,
            r.h2d_bytes,
            r.intra_imbalance,
            r.score_crc,
            match r.sim_host_ns_per_cell {
                Some(h) => format!(
                    ", \"sim_host_ns_per_cell\": {{\"inter\": {:.1}, \"intra\": {:.1}}}",
                    h.inter, h.intra
                ),
                None => String::new(),
            },
            if i + 1 == e.rows.len() { "" } else { "," },
        ));
    }
    out.push_str(&format!("{indent}  ]\n"));
    out.push_str(&format!("{indent}}}"));
    out
}

fn num(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(|n| n.as_f64())
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn text(v: &Json, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(|s| s.as_str())
        .map(str::to_string)
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn row_from_json(v: &Json) -> Result<DeviceOptRow, String> {
    Ok(DeviceOptRow {
        label: text(v, "config")?,
        gcups: num(v, "gcups")?,
        kernel_seconds: num(v, "kernel_seconds")?,
        cells: num(v, "cells")? as u64,
        inter_global_transactions: num(v, "inter_global_transactions")? as u64,
        hidden_latency_cycles: num(v, "hidden_latency_cycles")? as u64,
        h2d_seconds: num(v, "h2d_seconds")?,
        h2d_hidden_seconds: num(v, "h2d_hidden_seconds")?,
        h2d_bytes: num(v, "h2d_bytes")? as u64,
        intra_imbalance: num(v, "intra_imbalance")?,
        score_crc: num(v, "score_crc")? as u32,
        sim_host_ns_per_cell: match v.get("sim_host_ns_per_cell") {
            Some(h) => Some(HostNsPerCell {
                inter: num(h, "inter")?,
                intra: num(h, "intra")?,
            }),
            None => None,
        },
    })
}

fn entry_from_json(v: &Json) -> Result<TrajectoryEntry, String> {
    let rows = v
        .get("rows")
        .and_then(|r| r.as_arr())
        .ok_or("entry without rows array")?;
    Ok(TrajectoryEntry {
        rev: text(v, "rev")?,
        config: text(v, "config")?,
        device: text(v, "device")?,
        db_size: num(v, "db_size")? as usize,
        query_len: num(v, "query_len")? as usize,
        cells: num(v, "cells")? as u64,
        rows: rows.iter().map(row_from_json).collect::<Result<_, _>>()?,
    })
}

/// The standalone counted gates every entry must satisfy. Returns
/// human-readable failures (empty = pass).
pub fn invariant_gates(e: &TrajectoryEntry) -> Vec<String> {
    let mut failures = Vec::new();
    let required = [
        "none", "staging", "shared", "fusion", "stream", "balance", "all",
    ];
    for label in required {
        if e.row(label).is_none() {
            failures.push(format!("matrix row {label:?} missing"));
        }
    }
    if !failures.is_empty() {
        return failures;
    }
    let row = |label: &str| e.row(label).expect("presence checked above");
    let none = row("none");

    // The optimizations are pure memory/overlap moves: same answers,
    // same DP work, everywhere.
    for r in &e.rows {
        if r.score_crc != none.score_crc {
            failures.push(format!(
                "row {}: score CRC {:08x} differs from baseline {:08x}",
                r.label, r.score_crc, none.score_crc
            ));
        }
        if r.cells != none.cells {
            failures.push(format!(
                "row {}: {} cells vs baseline {}",
                r.label, r.cells, none.cells
            ));
        }
    }

    // Shared-memory staging: the strip-boundary traffic leaves global
    // memory.
    let staging = row("staging");
    if (none.inter_global_transactions as f64)
        < STAGING_MIN_TRANSACTION_CUT * staging.inter_global_transactions as f64
    {
        failures.push(format!(
            "staging cut {} -> {} global transactions, below the \
             {STAGING_MIN_TRANSACTION_CUT}x gate",
            none.inter_global_transactions, staging.inter_global_transactions
        ));
    }
    let shared = row("shared");
    if shared.inter_global_transactions >= none.inter_global_transactions {
        failures.push(format!(
            "shared-only kernel did not reduce global transactions: {} vs {}",
            shared.inter_global_transactions, none.inter_global_transactions
        ));
    }
    let all = row("all");
    if all.inter_global_transactions > staging.inter_global_transactions {
        failures.push(format!(
            "all-on row has more global transactions ({}) than staging alone ({})",
            all.inter_global_transactions, staging.inter_global_transactions
        ));
    }

    // Cross-strip fusion: the baseline exposes every inter-strip stall,
    // the fused kernel hides a counted number of them.
    if none.hidden_latency_cycles != 0 {
        failures.push(format!(
            "unfused baseline claims {} hidden cycles",
            none.hidden_latency_cycles
        ));
    }
    let fusion = row("fusion");
    if fusion.hidden_latency_cycles == 0 {
        failures.push("fusion hid zero stall cycles".to_string());
    }

    // Streamed H2D: same bytes, part of the copy time hidden, and the
    // accounting identity holds.
    let stream = row("stream");
    if stream.h2d_bytes != none.h2d_bytes {
        failures.push(format!(
            "streaming changed H2D bytes: {} vs {}",
            stream.h2d_bytes, none.h2d_bytes
        ));
    }
    if stream.h2d_hidden_seconds <= 0.0 {
        failures.push("streaming hid no copy time".to_string());
    }
    if stream.h2d_seconds >= none.h2d_seconds {
        failures.push(format!(
            "streaming did not shrink exposed H2D time: {} vs {}",
            stream.h2d_seconds, none.h2d_seconds
        ));
    }
    let identity = (stream.h2d_seconds + stream.h2d_hidden_seconds - none.h2d_seconds).abs();
    if identity > ACCOUNTING_TOLERANCE * none.h2d_seconds.max(1e-12) {
        failures.push(format!(
            "streamed accounting identity broken: exposed {} + hidden {} != sync {}",
            stream.h2d_seconds, stream.h2d_hidden_seconds, none.h2d_seconds
        ));
    }

    // SaLoBa balance: never worse, and a real cut when the baseline is
    // actually skewed.
    let balance = row("balance");
    if balance.intra_imbalance > none.intra_imbalance {
        failures.push(format!(
            "balance worsened block imbalance: {:.2} vs {:.2}",
            balance.intra_imbalance, none.intra_imbalance
        ));
    }
    if none.intra_imbalance >= BALANCE_GATE_MIN_SKEW
        && none.intra_imbalance < BALANCE_MIN_IMBALANCE_CUT * balance.intra_imbalance
    {
        failures.push(format!(
            "balance cut {:.2} -> {:.2}, below the {BALANCE_MIN_IMBALANCE_CUT}x gate",
            none.intra_imbalance, balance.intra_imbalance
        ));
    }

    // All optimizations together must not be slower than none of them.
    if all.kernel_seconds > none.kernel_seconds {
        failures.push(format!(
            "all-on row is slower than the baseline: {:.6}s vs {:.6}s",
            all.kernel_seconds, none.kernel_seconds
        ));
    }
    failures
}

/// Compare a fresh entry against its committed baseline, row by row
/// (matched on configuration label): GCUPs must not drop beyond
/// [`GCUPS_TOLERANCE`] and inter-task global transactions must not grow
/// beyond [`TRANSACTION_TOLERANCE`]. Returns failures (empty = pass).
pub fn regressions(baseline: &TrajectoryEntry, new: &TrajectoryEntry) -> Vec<String> {
    let mut failures = Vec::new();
    for old in &baseline.rows {
        let Some(fresh) = new.rows.iter().find(|r| r.label == old.label) else {
            continue;
        };
        if fresh.gcups < old.gcups * (1.0 - GCUPS_TOLERANCE) {
            failures.push(format!(
                "{}: {:.3} GCUPs vs committed {:.3} (allowed floor {:.3})",
                fresh.label,
                fresh.gcups,
                old.gcups,
                old.gcups * (1.0 - GCUPS_TOLERANCE),
            ));
        }
        let ceiling = old.inter_global_transactions as f64 * (1.0 + TRANSACTION_TOLERANCE);
        if fresh.inter_global_transactions as f64 > ceiling {
            failures.push(format!(
                "{}: {} global transactions vs committed {} (allowed ceiling {:.0})",
                fresh.label,
                fresh.inter_global_transactions,
                old.inter_global_transactions,
                ceiling,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_row(label: &str) -> DeviceOptRow {
        let (glob, hidden, h2d, h2d_hidden, imb) = match label {
            "none" => (40_000, 0, 0.004, 0.0, 3.2),
            "staging" => (5_000, 0, 0.004, 0.0, 3.2),
            "shared" => (31_000, 0, 0.004, 0.0, 3.2),
            "fusion" => (40_000, 9_000, 0.004, 0.0, 3.2),
            "stream" => (40_000, 0, 0.0025, 0.0015, 3.2),
            "balance" => (40_000, 0, 0.004, 0.0, 1.2),
            "all" => (5_000, 9_000, 0.0025, 0.0015, 1.2),
            other => panic!("unknown sample row {other}"),
        };
        DeviceOptRow {
            label: label.to_string(),
            gcups: if label == "all" { 3.4 } else { 3.0 },
            kernel_seconds: if label == "all" { 0.0042 } else { 0.005 },
            cells: 14_900_000,
            inter_global_transactions: glob,
            hidden_latency_cycles: hidden,
            h2d_seconds: h2d,
            h2d_hidden_seconds: h2d_hidden,
            h2d_bytes: 65_536,
            intra_imbalance: imb,
            score_crc: 0xdeadbeef,
            sim_host_ns_per_cell: Some(HostNsPerCell {
                inter: 30.0,
                intra: 75.0,
            }),
        }
    }

    fn sample_entry(rev: &str) -> TrajectoryEntry {
        TrajectoryEntry {
            rev: rev.to_string(),
            config: "devopt-full-208x300".to_string(),
            device: "tesla-c2050/sm4x1".to_string(),
            db_size: 208,
            query_len: 300,
            cells: 14_900_000,
            rows: [
                "none", "staging", "shared", "fusion", "stream", "balance", "all",
            ]
            .iter()
            .map(|l| sample_row(l))
            .collect(),
        }
    }

    #[test]
    fn round_trips_through_json() {
        let mut t = Trajectory::default();
        t.append(sample_entry("abc1234"));
        t.append(sample_entry("def5678"));
        let parsed = Trajectory::parse(&t.to_json()).expect("valid document");
        assert_eq!(parsed.entries.len(), 2);
        for (a, b) in t.entries.iter().zip(&parsed.entries) {
            assert_eq!(a.rev, b.rev);
            assert_eq!(a.config, b.config);
            assert_eq!(a.device, b.device);
            assert_eq!(a.cells, b.cells);
            assert_eq!(a.rows.len(), b.rows.len());
            for (x, y) in a.rows.iter().zip(&b.rows) {
                assert_eq!(x.label, y.label);
                assert_eq!(x.inter_global_transactions, y.inter_global_transactions);
                assert_eq!(x.hidden_latency_cycles, y.hidden_latency_cycles);
                assert_eq!(x.h2d_bytes, y.h2d_bytes);
                assert_eq!(x.score_crc, y.score_crc);
                assert!((x.gcups - y.gcups).abs() < 1e-3);
                assert!((x.h2d_seconds - y.h2d_seconds).abs() < 1e-8);
                assert!((x.intra_imbalance - y.intra_imbalance).abs() < 1e-3);
                assert_eq!(x.sim_host_ns_per_cell, y.sim_host_ns_per_cell);
            }
        }
    }

    #[test]
    fn rows_without_the_host_cost_column_still_parse() {
        let mut e = sample_entry("old");
        for r in &mut e.rows {
            r.sim_host_ns_per_cell = None;
        }
        let mut t = Trajectory::default();
        t.append(e);
        let text = t.to_json();
        assert!(!text.contains("sim_host_ns_per_cell"));
        let parsed = Trajectory::parse(&text).expect("valid document");
        assert!(parsed.entries[0]
            .rows
            .iter()
            .all(|r| r.sim_host_ns_per_cell.is_none()));
    }

    #[test]
    fn append_is_append_only_except_for_identical_keys() {
        let mut t = Trajectory::default();
        t.append(sample_entry("aaa"));
        t.append(sample_entry("bbb"));
        assert_eq!(t.entries.len(), 2);
        // Same (rev, config, device): replaced in place.
        let mut rerun = sample_entry("bbb");
        rerun.rows[0].gcups = 3.1;
        t.append(rerun);
        assert_eq!(t.entries.len(), 2);
        assert!((t.entries[1].rows[0].gcups - 3.1).abs() < 1e-9);
        // A different config is a different key even at the same rev.
        let mut smoke = sample_entry("bbb");
        smoke.config = "devopt-smoke-168x160".to_string();
        t.append(smoke);
        assert_eq!(t.entries.len(), 3);
    }

    #[test]
    fn baseline_matching_requires_config_and_device() {
        let mut t = Trajectory::default();
        t.append(sample_entry("aaa"));
        let mut other_device = sample_entry("bbb");
        other_device.device = "tesla-c1060".to_string();
        assert!(t.baseline_for(&other_device).is_none());
        let mut other_config = sample_entry("bbb");
        other_config.config = "devopt-smoke-168x160".to_string();
        assert!(t.baseline_for(&other_config).is_none());
        let same = sample_entry("bbb");
        assert_eq!(t.baseline_for(&same).map(|e| e.rev.as_str()), Some("aaa"));
    }

    #[test]
    fn invariant_gates_pass_on_a_healthy_entry() {
        assert_eq!(invariant_gates(&sample_entry("aaa")), Vec::<String>::new());
    }

    #[test]
    fn invariant_gates_catch_each_broken_claim() {
        let trip = |mutate: fn(&mut TrajectoryEntry), needle: &str| {
            let mut e = sample_entry("aaa");
            mutate(&mut e);
            let failures = invariant_gates(&e);
            assert!(
                failures.iter().any(|f| f.contains(needle)),
                "expected a failure containing {needle:?}, got {failures:?}"
            );
        };
        trip(|e| e.rows[1].score_crc ^= 1, "score CRC");
        trip(|e| e.rows[3].cells += 1, "cells vs baseline");
        trip(
            |e| e.rows[1].inter_global_transactions = 20_000,
            "below the 4x gate",
        );
        trip(
            |e| e.rows[2].inter_global_transactions = 40_000,
            "did not reduce",
        );
        trip(
            |e| e.rows[6].inter_global_transactions = 6_000,
            "more global transactions",
        );
        trip(|e| e.rows[0].hidden_latency_cycles = 5, "unfused baseline");
        trip(
            |e| e.rows[3].hidden_latency_cycles = 0,
            "hid zero stall cycles",
        );
        trip(|e| e.rows[4].h2d_bytes += 8, "changed H2D bytes");
        trip(
            |e| e.rows[4].h2d_hidden_seconds = 0.0,
            "accounting identity",
        );
        trip(
            |e| e.rows[5].intra_imbalance = 3.5,
            "worsened block imbalance",
        );
        trip(|e| e.rows[5].intra_imbalance = 2.5, "below the 1.5x gate");
        trip(
            |e| e.rows[6].kernel_seconds = 0.006,
            "slower than the baseline",
        );
        trip(
            |e| {
                e.rows.remove(2);
            },
            "missing",
        );
    }

    #[test]
    fn balance_cut_gate_is_conditional_on_baseline_skew() {
        // Near-uniform baseline: a small residual imbalance passes even
        // though the cut is under 1.5x (nothing to cut).
        let mut e = sample_entry("aaa");
        for r in &mut e.rows {
            r.intra_imbalance = match r.label.as_str() {
                "balance" | "all" => 1.3,
                _ => 1.5,
            };
        }
        assert_eq!(invariant_gates(&e), Vec::<String>::new());
    }

    #[test]
    fn comparator_rejects_slowdowns_and_transaction_growth() {
        let committed = sample_entry("aaa");
        let mut slow = sample_entry("bbb");
        slow.rows[6].gcups = 1.0;
        let failures = regressions(&committed, &slow);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("all:"));
        let mut chatty = sample_entry("ccc");
        chatty.rows[1].inter_global_transactions = 8_000;
        let failures = regressions(&committed, &chatty);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("allowed ceiling"));
        // Within-tolerance noise passes; unmatched rows are skipped.
        let mut noisy = sample_entry("ddd");
        for r in &mut noisy.rows {
            r.gcups *= 0.9;
        }
        assert!(regressions(&committed, &noisy).is_empty());
        let mut extra = sample_entry("eee");
        extra.rows.push(DeviceOptRow {
            label: "staging+fusion".to_string(),
            ..sample_row("staging")
        });
        assert!(regressions(&committed, &extra).is_empty());
    }
}
