//! Two-clock serving benchmark.
//!
//! ```text
//! servebench --workload <serve_open|dptc_pressure|spec_b1> --seed <n>
//!            --seconds <s> --trace <0|1>
//! servebench --calibrate
//! ```
//!
//! One process runs one workload on one thread. It builds the model and
//! the seeded request trace in several timed rounds (`setup_s` is the
//! median), then repeats the fixed workload for `--seconds` and reports
//! the median pass. Host metrics come from the wall clock, scaled by a
//! reference kernel timed around every span (see `refclock`); simulated
//! metrics come from the accelerator model and must repeat bit for bit
//! in every pass. With `--trace 1` half the time goes to untraced
//! passes and half to traced ones, which time each layer's calls from
//! this benchmark's code and must reproduce the untraced pass exactly.
//! The last line of standard output is one JSON object; a failed
//! correctness gate exits non-zero without printing it. `--calibrate`
//! prints `serve_open`'s capacity and load table (see README.md).

mod refclock;
mod report;
mod stats;
mod timed;
mod workloads;

use refclock::{SharedTimeline, Timeline};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Spans, Workload};

/// Set-up rounds per process, each timed between two reference-kernel
/// samples; `setup_s` is the median round divided by its set-ups.
const SETUP_ROUNDS: usize = 15;

/// Set-ups per round: enough that a round of the smallest set-up
/// (~0.1 ms) is not all timer and cache noise.
const SETUPS_PER_ROUND: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--calibrate") {
        return Ok(None);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    }))
}

fn main() -> ExitCode {
    match parse_args() {
        Ok(Some(args)) => match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("servebench: {e}");
                ExitCode::FAILURE
            }
        },
        Ok(None) => {
            report::calibrate();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<(), String> {
    // One set-up stays alive at a time, so `peak_rss_mb` sees the pass.
    let setups = SharedTimeline::default();
    let mut setup = None;
    for _ in 0..SETUP_ROUNDS {
        Timeline::time(&setups, || {
            for _ in 0..SETUPS_PER_ROUND {
                setup = Some(workloads::setup(args.workload, args.seed));
            }
        });
    }
    let setup = setup.expect("at least one setup");
    let setup_s = stats::median(&setups.borrow().scaled_s) / SETUPS_PER_ROUND as f64;

    let untraced_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let clock = Instant::now();
    let untraced = SharedTimeline::default();
    let mut reference: Option<workloads::Pass> = None;
    for n in 1.. {
        let pass = Timeline::time(&untraced, || {
            workloads::run_pass(&setup, &mut Spans::default(), &untraced)
        });
        match &reference {
            None => reference = Some(pass),
            Some(first) if *first != pass => {
                return Err(format!(
                    "pass {n} differs from pass 1: simulated results are not deterministic"
                ))
            }
            Some(_) => {}
        }
        if clock.elapsed().as_secs_f64() >= untraced_budget {
            break;
        }
    }
    let pass = reference.expect("at least one pass");
    workloads::check(&setup, &pass)?;
    let untraced = untraced.take();
    let host_s = stats::median(&untraced.scaled_s);

    let traced_line = SharedTimeline::default();
    let mut traced = Vec::new();
    if args.trace {
        let clock = Instant::now();
        loop {
            let mut spans = Spans::traced();
            let traced_pass = Timeline::time(&traced_line, || {
                workloads::run_pass(&setup, &mut spans, &traced_line)
            });
            if traced_pass != pass {
                return Err("the traced pass differs from the untraced pass".into());
            }
            traced.push(spans);
            if clock.elapsed().as_secs_f64() >= args.seconds / 2.0 {
                break;
            }
        }
    }
    let traced_line = traced_line.take();

    let passes = (untraced.wall_s.len() + traced.len()) as u64;
    let requests = setup.requests.len() as u64;
    let unserved = pass
        .records
        .iter()
        .filter(|r| r.outcome != lt_nn::serve::lifecycle::RequestOutcome::Completed)
        .count() as u64;
    let metrics = if args.trace {
        let scaled = &traced_line.scaled_s;
        let mut order: Vec<usize> = (0..scaled.len()).collect();
        order.sort_by(|&a, &b| scaled[a].total_cmp(&scaled[b]));
        let mid = order[order.len() / 2];
        report::per_layer(
            &pass,
            &traced[mid],
            traced_line.wall_s[mid],
            stats::median(scaled) / host_s - 1.0,
            &untraced,
        )
    } else {
        report::end_to_end(&pass, setup_s, host_s)
    };
    println!(
        "{}",
        report::json(passes * requests, passes * unserved, &metrics)
    );
    Ok(())
}
