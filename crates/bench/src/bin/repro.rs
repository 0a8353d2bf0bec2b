//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro <experiment>   run one experiment (e.g. `repro table5`)
//! repro all            run everything (also writes BENCH_repro.json)
//! repro json           write + print BENCH_repro.json only
//! repro check [--tolerance 0.5%] [baseline]
//!                      perf-regression gate: regenerate the snapshot in
//!                      memory and diff it against the committed
//!                      baseline; non-zero exit on drift
//! repro list           list available experiments
//! ```
//!
//! `BENCH_repro.json` is the machine-readable cost snapshot (per-model
//! cycles/energy/EDP, decode, KV, schedule-cache, serving and
//! speculation sections); commit or diff it to track the trajectory
//! across PRs. `repro check` is the CI gate over exactly that file:
//! every field is modeled and must stay within tolerance of the
//! committed baseline, so a cost-model change either updates the
//! baseline intentionally in the same PR or fails the build. Host time
//! is servebench's to measure.

use lt_bench::{all_experiments, bench_repro_json, compare};

const JSON_PATH: &str = "BENCH_repro.json";
const DEFAULT_TOLERANCE: f64 = 0.005; // 0.5%

fn write_json() -> String {
    let json = bench_repro_json();
    match std::fs::write(JSON_PATH, &json) {
        Ok(()) => eprintln!("wrote {JSON_PATH}"),
        Err(e) => eprintln!("could not write {JSON_PATH}: {e}"),
    }
    json
}

/// Parses `0.5%` / `0.005` into a fraction.
fn parse_tolerance(arg: &str) -> Option<f64> {
    let (num, percent) = match arg.strip_suffix('%') {
        Some(n) => (n, true),
        None => (arg, false),
    };
    let v: f64 = num.parse().ok()?;
    let frac = if percent { v / 100.0 } else { v };
    (frac >= 0.0 && frac.is_finite()).then_some(frac)
}

fn run_check(args: &[String]) -> ! {
    let mut tolerance = DEFAULT_TOLERANCE;
    let mut baseline_path = JSON_PATH.to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--tolerance" {
            let val = it.next().and_then(|v| parse_tolerance(v));
            match val {
                Some(t) => tolerance = t,
                None => {
                    eprintln!("--tolerance needs a value like `0.5%` or `0.005`");
                    std::process::exit(2);
                }
            }
        } else {
            baseline_path = arg.clone();
        }
    }
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "regenerating the snapshot and diffing against {baseline_path} \
         (tolerance {:.3}%)...",
        tolerance * 100.0
    );
    let fresh = bench_repro_json();
    match compare(&baseline, &fresh, tolerance) {
        Ok(drift) if drift.is_empty() => {
            println!("repro check: OK — modeled metrics match the committed baseline");
            std::process::exit(0);
        }
        Ok(drift) => {
            println!(
                "repro check: FAILED — {} field(s) drifted beyond {:.3}%:",
                drift.len(),
                tolerance * 100.0
            );
            for d in &drift {
                println!("  {d}");
            }
            println!(
                "if this change is intended, refresh the baseline in the same PR:\n  \
                 cargo run --release -p lt-bench --bin repro -- json"
            );
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("repro check: cannot compare: {e}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let arg = args.first().map(String::as_str).unwrap_or("list");
    let experiments = all_experiments();
    match arg {
        "list" => {
            println!("available experiments:");
            for (cmd, desc, _) in &experiments {
                println!("  {cmd:<8} {desc}");
            }
            println!("  json     write the machine-readable perf snapshot (BENCH_repro.json)");
            println!("  check    diff a fresh snapshot against the committed baseline");
            println!("  all      run everything");
        }
        "json" => {
            println!("{}", write_json());
        }
        "check" => run_check(&args[1..]),
        "all" => {
            for (cmd, desc, run) in &experiments {
                println!("================================================================");
                println!("== {cmd}: {desc}");
                println!("================================================================");
                println!("{}", run());
            }
            write_json();
        }
        cmd => match experiments.iter().find(|(c, _, _)| *c == cmd) {
            Some((_, desc, run)) => {
                println!("== {cmd}: {desc}\n");
                println!("{}", run());
            }
            None => {
                eprintln!("unknown experiment `{cmd}`; try `repro list`");
                std::process::exit(2);
            }
        },
    }
}
