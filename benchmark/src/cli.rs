//! Command line of both binaries: the driver's `bench`, the internal
//! `child`, and the tools `run`, `compare`, `probe` and `schema`.

use std::path::Path;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use serde::Value;

use crate::check::StepDigest;
use crate::compare;
use crate::driver::{bench, BenchArgs, TRIALS};
use crate::layers::OUT_DIR;
use crate::refkernel::{RefKernel, Regime};
use crate::schema;
use crate::sys;
use crate::trial::{self, TrialArgs};
use crate::workloads::{Workload, ALL};

const USAGE: &str = "usage: run.sh <command>
  bench   --workload W --seed N --seconds S --trace 0|1   one run, result line last (the driver's)
  run     [--traced] [--smoke] [--seed N] [--out F]       every workload; results as JSON
  compare A.json B.json                                   one row per workload x metric
  probe   [--seconds S]                                   reference kernel alone, a line a second
  schema                                                  print BENCHMARK.json from the tables";

/// `--name value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn value(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None if self.has(name) => Err(format!("{name} needs a value")),
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("bad value {v:?} for {name}")),
        }
    }

    fn required<T: std::str::FromStr>(&self, name: &str) -> Result<T, String> {
        self.parsed(name)?.ok_or_else(|| format!("missing {name}"))
    }

    fn workload(&self) -> Result<Workload, String> {
        let name: String = self.required("--workload")?;
        Workload::from_name(&name).ok_or_else(|| {
            let known: Vec<&str> = ALL.iter().map(|w| w.name()).collect();
            format!("unknown workload {name:?} (known: {})", known.join(", "))
        })
    }

    fn trace(&self) -> Result<bool, String> {
        match self.required::<u8>("--trace")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }
}

/// The longest the wrapper script takes before this process exists when it
/// has nothing to compile (measured: 0.12 s).
const WRAPPER_SECS: u64 = 5;

/// When the invocation began: the wrapper script's own start if it passed
/// one (`--t0-ns`, nanoseconds since the epoch), so that the time it spent
/// before this process existed comes out of the same budget. A wrapper that
/// took longer than [`WRAPPER_SECS`] was compiling (a checkout's first run;
/// 27 s here, and the contract times that run separately): the budget then
/// starts with this process, or the first run would measure for what the
/// compiler left over.
fn started_at(flags: &Flags, process_start: Instant) -> Instant {
    let Ok(Some(t0_ns)) = flags.parsed::<u128>("--t0-ns") else {
        return process_start;
    };
    let Ok(now) = SystemTime::now().duration_since(UNIX_EPOCH) else {
        return process_start;
    };
    let before = now.as_nanos().saturating_sub(t0_ns);
    if before > u128::from(WRAPPER_SECS) * 1_000_000_000 {
        return process_start;
    }
    Instant::now()
        .checked_sub(Duration::from_nanos(before as u64))
        .unwrap_or(process_start)
}

/// The committed contract must be the one this binary was built from.
fn check_contract() -> Result<(), String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the root of the checkout): {e}"))?;
    schema::validate(&text)
}

fn cmd_bench(flags: &Flags, process_start: Instant) -> Result<i32, String> {
    check_contract()?;
    let seconds: f64 = flags.required("--seconds")?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} outside 1..=60"));
    }
    let args = BenchArgs {
        workload: flags.workload()?,
        seed: flags.required("--seed")?,
        seconds,
        traced: flags.trace()?,
        trials: TRIALS,
        started: started_at(flags, process_start),
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let outcome = bench(&args);
    if sys::terminated() {
        return Err("terminated by a signal".into());
    }
    if let Some(why) = &outcome.failure {
        eprintln!("dos-benchmark: {}: {why}", args.workload.name());
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() { 0 } else { 1 })
}

fn cmd_child(flags: &Flags, process_start: Instant) -> Result<i32, String> {
    sys::die_with_parent();
    let twin_text: String = flags.required("--twin")?;
    let twin = if twin_text == "-" {
        Vec::new()
    } else {
        twin_text
            .split(',')
            .map(|d| StepDigest::decode(d).ok_or_else(|| format!("bad twin digest {d:?}")))
            .collect::<Result<Vec<_>, _>>()?
    };
    let args = TrialArgs {
        workload: flags.workload()?,
        seed: flags.required("--seed")?,
        budget_secs: flags.required("--budget-s")?,
        twin,
        traced: flags.trace()?,
    };
    let result = trial::run(&args, process_start);
    let line = serde_json::to_string(&result).map_err(|e| format!("encode result: {e}"))?;
    println!("{line}");
    Ok(0)
}

fn cmd_run(flags: &Flags) -> Result<i32, String> {
    check_contract()?;
    let smoke = flags.has("--smoke");
    let seed: u64 = flags.parsed("--seed")?.unwrap_or(0);
    // The smoke run is one short trial per workload: it shows that every
    // workload builds, runs and passes its checks, not how fast it is.
    let (seconds, trials) = if smoke {
        (6.0, 1)
    } else {
        (schema::RUN_SECONDS as f64, TRIALS)
    };
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let passes: &[(&str, bool)] = if flags.has("--traced") {
        &[("end_to_end", false), ("per_layer", true)]
    } else {
        &[("end_to_end", false)]
    };
    let mut doc = vec![
        (
            "schema".to_string(),
            Value::Str("dos-benchmark/results-v1".into()),
        ),
        ("claim".to_string(), Value::Null),
        ("seed".to_string(), Value::Int(seed as i64)),
        ("run_seconds".to_string(), Value::Float(seconds)),
        ("trials".to_string(), Value::Int(trials as i64)),
        (
            "nproc".to_string(),
            Value::Int(std::thread::available_parallelism().map_or(0, |n| n.get()) as i64),
        ),
    ];
    let mut failed = false;
    for (pass, traced) in passes {
        let mut by_workload = Vec::new();
        for workload in ALL {
            let args = BenchArgs {
                workload,
                seed,
                seconds,
                traced: *traced,
                trials,
                started: Instant::now(),
            };
            let outcome = bench(&args);
            if sys::terminated() {
                return Err("terminated by a signal".into());
            }
            eprintln!(
                "{pass:10} {:14} {}",
                workload.name(),
                outcome.failure.as_deref().unwrap_or("ok")
            );
            failed |= !outcome.correct();
            by_workload.push((workload.name().to_string(), outcome.to_value(true)));
        }
        doc.push((pass.to_string(), Value::Map(by_workload)));
    }
    let mut text = serde_json::to_string_pretty(&Value::Map(doc)).map_err(|e| e.to_string())?;
    text.push('\n');
    match flags.value("--out") {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(i32::from(failed))
}

fn cmd_compare(rest: &[String]) -> Result<i32, String> {
    let [a, b] = rest else {
        return Err("compare takes two result files".into());
    };
    let read = |p: &String| std::fs::read_to_string(Path::new(p)).map_err(|e| format!("{p}: {e}"));
    let report = compare::compare(&read(a)?, &read(b)?)?;
    print!("{}", report.render(a, b));
    Ok(i32::from(report.any_regressed()))
}

fn cmd_probe(flags: &Flags) -> Result<i32, String> {
    let seconds: u64 = flags.parsed("--seconds")?.unwrap_or(10);
    let mut kernels = [
        ("cache", RefKernel::new(Regime::Cache)),
        ("dram", RefKernel::new(Regime::Dram)),
    ];
    for second in 1..=seconds {
        let t = Instant::now();
        let mut sums = [(0.0f64, 0.0f64); 2];
        while t.elapsed() < Duration::from_secs(1) {
            for ((_, kernel), sum) in kernels.iter_mut().zip(sums.iter_mut()) {
                let (nominal, cpu) = kernel.burst();
                sum.0 += nominal;
                sum.1 += cpu;
            }
        }
        // cpu_share < 1: the thread was runnable but did not run.
        let cpu_share = (sums[0].1 + sums[1].1) / t.elapsed().as_secs_f64();
        println!(
            "t={second}s host_speed_{}={:.4} host_speed_{}={:.4} cpu_share={cpu_share:.3}",
            kernels[0].0,
            sums[0].0 / sums[0].1,
            kernels[1].0,
            sums[1].0 / sums[1].1,
        );
        if sys::terminated() {
            break;
        }
    }
    Ok(0)
}

/// Entry point of both binaries; returns the exit code.
pub fn main(process_start: Instant) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    let flags = Flags(rest.to_vec());
    if command != "child" {
        sys::catch_termination();
    }
    let outcome = match command.as_str() {
        "bench" => cmd_bench(&flags, process_start),
        "child" => cmd_child(&flags, process_start),
        "run" => cmd_run(&flags),
        "compare" => cmd_compare(rest),
        "probe" => cmd_probe(&flags),
        "schema" => {
            print!("{}", schema::benchmark_json());
            Ok(0)
        }
        _ => Err(format!("unknown command {command:?}\n{USAGE}")),
    };
    match outcome {
        Ok(code) => code,
        Err(why) => {
            eprintln!("dos-benchmark: {why}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        Flags(args.iter().map(|a| a.to_string()).collect())
    }

    #[test]
    fn flags_parse_values_and_name_what_is_wrong() {
        let f = flags(&["--traced", "--seed", "5", "--out", "x.json", "--trace", "1"]);
        assert_eq!(f.parsed::<u64>("--seed"), Ok(Some(5)));
        assert_eq!(f.parsed::<u64>("--seconds"), Ok(None));
        assert!(f.has("--traced") && !f.has("--smoke"));
        assert_eq!(f.value("--out"), Some("x.json"));
        assert_eq!(f.trace(), Ok(true));
        assert!(f
            .required::<f64>("--seconds")
            .unwrap_err()
            .contains("missing --seconds"));
        assert!(flags(&["--seed", "x"])
            .parsed::<u64>("--seed")
            .unwrap_err()
            .contains("bad value"));
        assert!(flags(&["--seed"])
            .parsed::<u64>("--seed")
            .unwrap_err()
            .contains("needs a value"));
        assert!(flags(&["--trace", "2"]).trace().is_err());
    }

    #[test]
    fn the_budget_starts_with_the_wrapper_unless_it_was_compiling() {
        let now_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let process_start = Instant::now();
        let ago = |secs: u128| {
            let t0 = (now_ns - secs * 1_000_000_000).to_string();
            started_at(&flags(&["--t0-ns", &t0]), process_start)
        };
        let quick = process_start.duration_since(ago(1)).as_secs_f64();
        assert!((0.9..1.5).contains(&quick), "{quick}");
        assert_eq!(ago(30), process_start);
        assert_eq!(started_at(&flags(&[]), process_start), process_start);
    }

    #[test]
    fn workloads_are_looked_up_by_their_permanent_names() {
        assert_eq!(
            flags(&["--workload", "step_cache"]).workload(),
            Ok(Workload::StepCache)
        );
        let err = flags(&["--workload", "step_zenflow"])
            .workload()
            .unwrap_err();
        assert!(err.contains("unknown workload") && err.contains("train_dp2"));
    }
}
