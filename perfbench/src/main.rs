//! The pulse benchmark: one workload, one seed, one process, one simulation
//! thread.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ws-read --seed 1 --seconds 35 --trace 0
//! ```
//!
//! With `--trace 0` it runs whole rounds of the workload's open-loop
//! ladder until `--seconds` have passed and prints the end-to-end metrics:
//! host time (`host_`, what the simulator takes), simulated time (`rack_`,
//! what the modelled rack would take), set-up time and peak memory. With
//! `--trace 1` it prints the per-layer metrics instead and writes them, with
//! the benchmark's own host-time spans, under `.bench_out/`. Every output
//! is checked against an oracle computed apart from the simulator; the
//! last line of standard output is one JSON object.

mod calibrate;
mod layers;
mod rung;
mod spans;
mod workload;

use rung::{bypass_violations, check_outputs, simulate, sustained_kops, RackPoint};
use std::time::{Duration, Instant};
use workload::{arrival_seed, build, Workload, REQUESTS_PER_RUNG};

/// Requests in each run of the determinism self-check.
const CHECK_REQUESTS: usize = 400;
/// Where traced runs write their per-layer document and span file.
const OUT_DIR: &str = ".bench_out";

/// One printed metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// The median of `v` (mean of the middle pair for even lengths).
pub fn median(mut v: Vec<f64>) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// `x` as a JSON number (JSON has no NaN or infinity).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, not {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!(
                    "unknown workload {value}; expected one of {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?)
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A short run of `workload`: its rack statistics, arrivals and keys.
fn short_run(
    workload: Workload,
    seed: u64,
) -> Result<(RackPoint, Vec<pulse::sim::SimTime>, Vec<u64>), String> {
    let world = build(workload, seed, CHECK_REQUESTS, false).map_err(|e| e.to_string())?;
    let keys = world.keys;
    let rate = workload.reference_kops();
    let run = simulate(
        world.runtime,
        world.requests,
        rate,
        arrival_seed(seed),
        None,
    )
    .map_err(|e| e.to_string())?;
    Ok((RackPoint::of(&run, rate), run.arrivals, keys))
}

/// Runs the workload twice on `seed` — rack statistics and completion
/// stream must repeat exactly — and once on the next seed, whose arrivals
/// and keys must differ.
fn determinism_check(workload: Workload, seed: u64) -> Result<(), String> {
    let a = short_run(workload, seed)?;
    let b = short_run(workload, seed)?;
    if a != b {
        return Err(format!(
            "two runs on seed {seed} differ: {:?} vs {:?}",
            a.0, b.0
        ));
    }
    let c = short_run(workload, seed.wrapping_add(1))?;
    if c.1 == a.1 {
        return Err("the seed does not reach the arrival process".into());
    }
    if c.2 == a.2 {
        return Err("the seed does not reach the key chooser".into());
    }
    Ok(())
}

/// The peak resident set of this process, MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".into())
}

struct Outcome {
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: Vec<Metric>,
}

/// Whole rounds of the ladder until `seconds` have passed; every rung is a
/// fresh rack, set up, simulated, then checked.
fn run_untraced(
    workload: Workload,
    seed: u64,
    seconds: u64,
    kernel: &calibrate::Kernel,
) -> Result<Outcome, String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut violations = Vec::new();
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    let mut rates = Vec::new();
    let (mut total_host_s, mut total_retired) = (0.0, 0u64);
    let mut first: Option<Vec<RackPoint>> = None;
    let began = Instant::now();
    loop {
        let (mut host_s, mut retired) = (0.0, 0u64);
        let mut points = Vec::new();
        for &kops in workload.ladder_kops() {
            passes.push(kernel.pass_s());
            let t = Instant::now();
            let world =
                build(workload, seed, REQUESTS_PER_RUNG, false).map_err(|e| e.to_string())?;
            setups.push(t.elapsed().as_secs_f64());
            let mut run = simulate(
                world.runtime,
                world.requests,
                kops,
                arrival_seed(seed),
                None,
            )
            .map_err(|e| e.to_string())?;
            host_s += run.host_s();
            retired += run.retired();
            attempted += world.expect.len() as u64;
            let wrong = check_outputs(&mut run, &world.expect);
            if wrong > 0 {
                eprintln!(
                    "{} at {kops} kops: {wrong} wrong outputs, {} faulted",
                    workload.name(),
                    run.report.faulted
                );
            }
            failed += wrong;
            let reference = kops == workload.reference_kops();
            violations.extend(bypass_violations(workload, &run.report, reference));
            points.push(RackPoint::of(&run, kops));
        }
        rates.push(retired as f64 / host_s / 1e3);
        total_host_s += host_s;
        total_retired += retired;
        match &first {
            None => first = Some(points),
            Some(f) if *f != points => {
                return Err("a repeated round simulated a different rack".into())
            }
            Some(_) => {}
        }
        if began.elapsed() >= Duration::from_secs(seconds) {
            break;
        }
    }
    let points = first.expect("at least one round ran");
    let reference = points
        .iter()
        .find(|p| p.offered_kops == workload.reference_kops())
        .expect("the reference rate is a rung of the ladder");
    let sustained = sustained_kops(&points).ok_or("no rung of the ladder met the SLO")?;
    let mean_pass = passes.iter().sum::<f64>() / passes.len() as f64;
    let slowness = calibrate::slowness(mean_pass);
    let raw_rate = total_retired as f64 / total_host_s / 1e3;
    let raw_setup = median(setups);
    eprintln!(
        "{}: {} rounds of {} rungs x {} requests; host kreq/s per round {:.2?}",
        workload.name(),
        rates.len(),
        points.len(),
        REQUESTS_PER_RUNG,
        rates
    );
    eprintln!(
        "  as measured: {raw_rate:.3} kreq/s, set-up {raw_setup:.5} s; reference kernel \
         {mean_pass:.4} s a pass, {slowness:.4} x slower than the reference machine"
    );
    for p in &points {
        eprintln!(
            "  {:>6.0} kops offered {:>8.1} arrived | p50 {:>7.2} p99 {:>7.2} us ({} samples) | \
             goodput {:>7.1} kops",
            p.offered_kops, p.arrived_kops, p.p50_us, p.p99_us, p.samples, p.goodput_kops
        );
    }
    Ok(Outcome {
        attempted,
        failed,
        violations,
        metrics: vec![
            // Over the whole run rather than a median of rounds; both host
            // times at the reference machine's speed (see `calibrate`).
            Metric::new("host_kreq_per_s", raw_rate * slowness, "kreq/s"),
            Metric::new("setup_s", raw_setup / slowness, "s"),
            Metric::new(
                "peak_rss_mb",
                peak_rss_mib()? - calibrate::Kernel::ARENA_MIB,
                "MiB",
            ),
            Metric::new("rack_sustained_kops", sustained, "kops"),
            Metric::new("rack_p50_us", reference.p50_us, "us"),
            Metric::new("rack_p99_us", reference.p99_us, "us"),
        ],
    })
}

fn run_traced(workload: Workload, seed: u64, seconds: u64) -> Result<Outcome, String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = format!("{}-{seed}-{stamp}", workload.name());
    let traced = layers::run(workload, seed, seconds, run_id)?;
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let base = format!("{OUT_DIR}/{}-seed{seed}", workload.name());
    for (path, body) in [
        (format!("{base}-layers.json"), traced.document),
        (format!("{base}-spans.json"), traced.spans.chrome_json()),
    ] {
        std::fs::write(&path, body).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(Outcome {
        attempted: traced.attempted,
        failed: traced.failed,
        violations: traced.violations,
        metrics: traced.metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    // Built first, so that its arena is resident under every later peak.
    let kernel = (!args.trace).then(calibrate::Kernel::new);
    let outcome = determinism_check(args.workload, args.seed).and_then(|()| match &kernel {
        None => run_traced(args.workload, args.seed, args.seconds),
        Some(k) => run_untraced(args.workload, args.seed, args.seconds, k),
    });
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    let mut violations = outcome.violations;
    // Every round repeats the same assertions; report each broken one once.
    violations.sort();
    violations.dedup();
    for v in &violations {
        eprintln!("perfbench: layer-bypass assertion failed: {v}");
    }
    let correct = outcome.failed == 0 && violations.is_empty();
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    );
    if !correct {
        eprintln!(
            "perfbench: {} of {} outputs wrong",
            outcome.failed, outcome.attempted
        );
        std::process::exit(1);
    }
}
