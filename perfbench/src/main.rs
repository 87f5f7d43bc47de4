//! The repository benchmark: three seeded workloads over the public APIs
//! of the device (gpu-sim + cudasw-core), host (sw-simd) and gateway
//! (sw-gateway) surfaces.
//!
//! ```text
//! perfbench --workload <device-swissprot|host-swissprot|gateway-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks its outputs against a reference and prints a table of
//! metrics (name, value, unit, clock) followed by one JSON result line.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` times each
//! public call in its own span, reads the program's counters, runs the
//! layer probes and reports the per-layer metrics plus the tracing
//! overhead, and writes a Chrome trace of the harness's spans under
//! `.bench_build/perfbench/`. The process exits non-zero on any score
//! mismatch or exactly-once violation. See README.md.

mod device;
mod gateway;
mod host;
mod report;
mod tracer;

use report::RunResult;
use std::process::ExitCode;
use std::time::Instant;

/// One run's settings, parsed from the command line.
pub struct Opts {
    pub seed: u64,
    /// Measurement window, wall seconds.
    pub seconds: f64,
    pub trace: bool,
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Worker threads of the host pool: the hardware thread count.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run `f` once per set-up repetition, timing each; returns the last
/// value and the median time.
pub fn timed_setups<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    let value = last.expect("SETUP_REPS is at least 1");
    (value, report::median(&times))
}

fn parse_args() -> Result<(String, Opts), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((
        workload,
        Opts {
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(30.0),
            trace: trace.unwrap_or(false),
        },
    ))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut tracer = tracer::Tracer::new(opts.trace);
    let mut result: RunResult = match workload.as_str() {
        "device-swissprot" => device::run(&opts, &mut tracer),
        "host-swissprot" => host::run(&opts, &mut tracer),
        "gateway-mixed" => gateway::run(&opts, &mut tracer),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    println!(
        "# perfbench {workload} seed={} seconds={} trace={} host_threads={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        host_threads()
    );
    if opts.trace {
        let path = std::path::PathBuf::from(format!(
            ".bench_build/perfbench/{workload}-seed{}.trace.json",
            opts.seed
        ));
        match tracer.write(&path) {
            Ok(spans) => println!("# chrome trace: {} ({spans} spans)", path.display()),
            Err(e) => result.fail(format!("writing {}: {e}", path.display())),
        }
    } else {
        result
            .end_to_end
            .insert("peak_rss_mb", report::peak_rss_mb());
    }
    result.print(opts.trace);
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
