//! Wall-clock benchmark of the A-Caching engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload chain3 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates the workload's update stream from the seed, checks every
//! batch of deltas against a reference, and prints one JSON object as the
//! last line of standard output: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics (from a traced run) with `--trace 1`. A
//! `{"record": …}` line before it carries the host fingerprint and the
//! spread of the samples behind each metric. Exits with 1 when the
//! correctness gate fails and 2 on bad arguments. `BENCHMARK.md` defines
//! every workload and metric.

mod alloc;
mod exec;
mod gate;
mod host;
mod layers;
mod pass;
mod report;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;
use std::time::Instant;

use gate::Reference;
use report::{Json, Report};
use workload::Workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// Seed kept out of tuning: a later change that claims a gain must show
/// it on this seed too.
pub const HELD_OUT_SEED: u64 = 20_050_405;

/// Passes a timed run makes at least.
const MIN_PASSES: usize = 3;
/// Set-ups timed per pass: the pass's own and extra ones whose executor
/// is dropped, so `setup_s` rests on ten or more samples.
const SETUPS_PER_PASS: usize = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    #[cfg(feature = "fault-injection")]
    fault: Option<String>,
}

const USAGE: &str = "usage: perfbench --workload <chain3|burst-shift|star4> \
[--seed <n>] [--seconds <n>] [--trace <0|1>]";

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: DEFAULT_SEED,
            seconds: 20,
            trace: false,
            #[cfg(feature = "fault-injection")]
            fault: None,
        };
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            let number = |v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
            match flag.as_str() {
                "--workload" => a.workload = value()?,
                "--seed" => a.seed = number(value()?)?,
                "--seconds" => a.seconds = number(value()?)?,
                "--trace" => {
                    a.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        v => return Err(format!("--trace takes 0 or 1, not {v}")),
                    }
                }
                #[cfg(feature = "fault-injection")]
                "--inject-fault" => a.fault = Some(value()?),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        if !workload::NAMES.contains(&a.workload.as_str()) {
            return Err(format!("unknown workload {:?}", a.workload));
        }
        Ok(a)
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    #[cfg(feature = "fault-injection")]
    if let Some(f) = &args.fault {
        if let Err(e) = exec::plant_fault(f) {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    let started = Instant::now();
    let w = Workload::generate(&args.workload, args.seed).expect("workload name was validated");
    let generate_s = started.elapsed().as_secs_f64();
    let reference = Reference::compute(&w);
    let reference_s = started.elapsed().as_secs_f64() - generate_s;
    let mut report = match reference {
        Ok(reference) if args.trace => layers::run(&w, &reference),
        Ok(reference) => end_to_end(&w, &reference, args.seconds),
        Err(e) => Report::failed_gate(e),
    };
    if let Some(twin) = Workload::twin(&args.workload, args.seed) {
        match Reference::compute(&twin) {
            Ok(reference) => {
                let mut p = pass::run(&twin, &reference, None);
                report.audit(&twin, &mut p);
                let caches = p
                    .engine()
                    .used_caches()
                    .iter()
                    .map(|c| Json::str(c))
                    .collect();
                report
                    .record
                    .push(("invariant_twin_caches", Json::Arr(caches)));
            }
            Err(e) => report.violations.push(e),
        }
    }
    let fp = host::Fingerprint::capture();
    report.record.extend([
        ("workload", Json::str(w.name)),
        ("seed", Json::U(args.seed)),
        ("default_seed", Json::U(DEFAULT_SEED)),
        ("held_out_seed", Json::U(HELD_OUT_SEED)),
        ("trace", Json::Bool(args.trace)),
        ("batch_updates", Json::U(w.batch as u64)),
        ("setup_updates", Json::U(w.setup as u64)),
        (
            "timed_updates_per_pass",
            Json::U(w.timed_updates().len() as u64),
        ),
        ("generate_s", Json::F(generate_s)),
        ("reference_s", Json::F(reference_s)),
        ("wall_s", Json::F(started.elapsed().as_secs_f64())),
        ("available_parallelism", Json::U(fp.parallelism as u64)),
        ("cpu_model", Json::str(&fp.cpu_model)),
        ("rustc", Json::str(fp.rustc)),
        ("git_rev", Json::str(&fp.git_rev)),
    ]);
    report.print()
}

/// Updates per throughput window: 20–40 ms of engine time on every
/// workload, so a run holds hundreds of windows.
const WINDOW_UPDATES: usize = 16_384;
/// Share of windows a timing must hold in: rates are reported at their
/// 5th percentile across windows, times at their 95th.
const HOLDS_IN: f64 = 0.95;

/// The end-to-end run: passes over the stream until `seconds` have gone
/// by (at least [`MIN_PASSES`]), each building a fresh executor.
///
/// Throughput and median latency are computed per window and reported as
/// the value that 19 windows in 20 meet; set-up time likewise as the
/// value 19 set-ups in 20 meet. The host this was built on alternates,
/// over seconds to minutes, between fast and slow speed modes up to 1.6x
/// apart; a median across windows lands in whichever mode held most of a
/// run, while the 19-in-20 value stays in the slow mode whenever a run
/// visits it (see BENCHMARK.md). The 99th percentile of batch latency did
/// not settle, so it goes to the record, not the metrics.
fn end_to_end(w: &Workload, reference: &Reference, seconds: u64) -> Report {
    let mut report = Report::default();
    let start = Instant::now();
    let per_window = (WINDOW_UPDATES / w.batch).max(1);
    let (mut rates, mut p50s, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
    let (mut setups, mut heaps) = (Vec::new(), Vec::new());
    let mut per_pass = Vec::new();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed().as_secs_f64() < seconds as f64 {
        passes += 1;
        for _ in 1..SETUPS_PER_PASS {
            let (_, setup_s, tally) = pass::set_up(w, reference, None);
            setups.push(setup_s);
            report.absorb(tally);
        }
        let mut p = pass::run(w, reference, None);
        report.audit(w, &mut p);
        if p.tally.failed > 0 || p.latencies_us.len() < per_window {
            break;
        }
        let batch = w.batch as f64;
        let mut r = stats::per_window(&p.latencies_us, per_window, |l| {
            batch * l.len() as f64 * 1e6 / l.iter().sum::<f64>()
        });
        let [q1, q2, q3] = stats::quartiles(&mut r);
        per_pass.push(Json::obj(vec![
            ("setup_s", Json::F(p.setup_s)),
            ("windows", Json::U(r.len() as u64)),
            ("window_ups_q1", Json::F(q1)),
            ("window_ups_median", Json::F(q2)),
            ("window_ups_q3", Json::F(q3)),
            ("runqueue_wait_ms", Json::F(p.runqueue_wait_ns as f64 / 1e6)),
            ("heap_peak_mb", Json::F(p.heap_peak_bytes as f64 / 1e6)),
            ("allocs", Json::U(p.allocs)),
        ]));
        rates.extend(r);
        p50s.extend(stats::per_window(
            &p.latencies_us,
            per_window,
            stats::median,
        ));
        latencies.extend(p.latencies_us);
        setups.push(p.setup_s);
        heaps.push(p.heap_peak_bytes as f64 / 1e6);
    }
    if rates.is_empty() {
        report
            .violations
            .push("no complete measurement window".to_string());
        return report;
    }
    let [r1, r2, r3] = stats::quartiles(&mut rates);
    report.metric(
        "throughput_ups",
        stats::quantile(&mut rates, 1.0 - HOLDS_IN),
        "1/s",
    );
    report.metric("latency_p50_us", stats::quantile(&mut p50s, HOLDS_IN), "us");
    report.metric("heap_peak_mb", stats::median(&mut heaps), "MB");
    report.metric("setup_s", stats::quantile(&mut setups, HOLDS_IN), "s");
    report.record.extend([
        ("passes", Json::U(passes as u64)),
        ("setups", Json::U(setups.len() as u64)),
        ("timed_batches", Json::U(latencies.len() as u64)),
        (
            "latency_p99_us",
            Json::F(stats::quantile(&mut latencies, 0.99)),
        ),
        ("throughput_windows", Json::U(rates.len() as u64)),
        ("window_ups_q1", Json::F(r1)),
        ("window_ups_median", Json::F(r2)),
        ("window_ups_q3", Json::F(r3)),
        ("per_pass", Json::Arr(per_pass)),
    ]);
    report
}
