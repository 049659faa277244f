//! `e2e`: the repo's end-to-end benchmark. See README.md beside Cargo.toml.
//!
//! ```text
//! e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run; last line is the result
//! e2e [--seed N] [--seconds S] [--smoke] [--traced] [--only W]   every workload, each in a child process
//! e2e compare <a.json> <b.json>                                  judge two result sets
//! e2e benchmark-json                                             print BENCHMARK.json
//! ```

mod catalog;
mod compare;
mod gen;
mod layers;
mod measure;
mod report;
mod serve;
mod serve_closed;
mod serve_open;
mod spans;
mod stats;
mod stream;

use report::Record;
use std::path::PathBuf;
use std::process::ExitCode;

/// Prefix of the line a single run prints for `e2e` (all workloads) to
/// pick up: the full record, slices and configuration included.
const RECORD_PREFIX: &str = "E2E-RECORD ";

fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").map_or(PathBuf::from("target"), Into::into);
    target.join("e2e")
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      e2e [--seed N] [--seconds S] [--smoke] [--traced] [--only <workload>]\n\
         \x20      e2e compare <a.json> <b.json>\n\
         \x20      e2e benchmark-json\n\
         workloads: {}",
        catalog::WORKLOADS
            .iter()
            .map(|w| w.name)
            .collect::<Vec<_>>()
            .join(", ")
    );
    ExitCode::from(2)
}

struct Args {
    workload: Option<String>,
    only: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    traced: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        only: None,
        seed: 1,
        seconds: catalog::RUN_SECONDS,
        trace: false,
        smoke: false,
        traced: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value()?.clone()),
            "--only" => parsed.only = Some(value()?.clone()),
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&parsed.seconds) {
                    return Err("--seconds must be 1..=60".to_string());
                }
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--traced" => parsed.traced = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    for name in parsed.workload.iter().chain(&parsed.only) {
        if !catalog::WORKLOADS.iter().any(|w| w.name == name) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(parsed)
}

/// One run of one workload in this process.
fn run_one(workload: &str, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let config = measure::resolve_config();
    let mut rec = Record::new(workload, seed, seconds, traced, config);
    let trace_path = out_dir().join(format!("trace_{workload}.json"));
    match (workload, traced) {
        ("serve_closed", false) => serve_closed::run(&mut rec),
        ("serve_closed", true) => serve_closed::run_traced(&mut rec, &trace_path),
        ("serve_open_zipf", false) => serve_open::run(&mut rec),
        ("serve_open_zipf", true) => serve_open::run_traced(&mut rec, &trace_path),
        (stream, traced) => {
            let kind = match stream {
                "lstm_stream" => stream::Kind::Lstm,
                "tree_stream" => stream::Kind::Tree,
                "bert_stream" => stream::Kind::Bert,
                _ => unreachable!("workload names are checked when arguments are parsed"),
            };
            if traced {
                stream::run_traced(kind, &mut rec, &trace_path);
            } else {
                stream::run(kind, &mut rec);
            }
        }
    }
    print_record(&rec);
    println!("{RECORD_PREFIX}{}", rec.to_json());
    println!("{}", rec.contract_line());
    ExitCode::SUCCESS
}

fn print_record(rec: &Record) {
    println!(
        "# {} seed={} seconds={} traced={} isa={} profile={} nproc={} git_rev={}",
        rec.workload,
        rec.seed,
        rec.seconds,
        rec.traced,
        rec.config.isa,
        rec.config.profile,
        rec.config.nproc,
        rec.config.git_rev
    );
    for m in &rec.metrics {
        println!(
            "{:<16} {:<38} {:>16.4} {}",
            rec.workload, m.name, m.value, m.unit
        );
    }
    println!(
        "{:<16} attempted {} failed {} correct {}",
        rec.workload,
        rec.attempted,
        rec.failed,
        rec.correct()
    );
}

/// Every workload, each run in a fresh child process so that peak memory
/// and the process-wide caches are per workload.
fn run_all(args: &Args) -> ExitCode {
    let seconds = if args.smoke { 1 } else { args.seconds };
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut records = Vec::new();
    let mut clean = true;
    for w in catalog::WORKLOADS {
        if args.only.as_deref().is_some_and(|only| only != w.name) {
            continue;
        }
        let modes: &[bool] = if args.traced { &[true] } else { &[false, true] };
        for &traced in modes {
            let output = std::process::Command::new(&exe)
                .args(["--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(std::process::Stdio::inherit())
                .output();
            let output = match output {
                Ok(o) => o,
                Err(e) => {
                    eprintln!("e2e: cannot run {}: {e}", w.name);
                    return ExitCode::FAILURE;
                }
            };
            let stdout = String::from_utf8_lossy(&output.stdout);
            let record = stdout
                .lines()
                .find_map(|l| l.strip_prefix(RECORD_PREFIX))
                .ok_or("no record line".to_string())
                .and_then(nimble_obs::json::parse)
                .and_then(|v| Record::from_json(&v));
            match record {
                Ok(rec) if output.status.success() => {
                    print_record(&rec);
                    clean &= rec.correct();
                    records.push(rec);
                }
                other => {
                    eprintln!(
                        "e2e: {} (traced={traced}) failed: {:?}",
                        w.name,
                        other.err()
                    );
                    clean = false;
                }
            }
        }
    }
    let path = out_dir().join("result.json");
    let written = std::fs::create_dir_all(out_dir())
        .and_then(|()| std::fs::write(&path, report::set_to_json(&records)));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("e2e: cannot write {}: {e}", path.display());
            clean = false;
        }
    }
    println!(
        "{{\"bench\": \"e2e\", \"records\": {}, \"claim\": null}}",
        records.len()
    );
    if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_compare(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| e.to_string())
            .and_then(|text| report::set_from_json(&text))
            .map_err(|e| format!("{path}: {e}"))
    };
    match (load(a), load(b)) {
        (Ok(a), Ok(b)) => {
            if compare::compare(&a, &b) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("e2e compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    // A NIMBLE_* knob would silently change what is measured.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("NIMBLE_"))
    {
        eprintln!("e2e: refusing to start with {} set", name.to_string_lossy());
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => return run_compare(&args[1], &args[2]),
        Some("benchmark-json") if args.len() == 1 => {
            print!("{}", catalog::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Some("compare" | "benchmark-json" | "--help" | "-h") => return usage(),
        _ => {}
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("e2e: {e}");
            return usage();
        }
    };
    match &parsed.workload {
        Some(workload) => run_one(workload, parsed.seed, parsed.seconds, parsed.trace),
        None => run_all(&parsed),
    }
}
