//! `dos-bench` — one dispatcher over the experiment registry
//! ([`dos_bench::all_experiments`]).
//!
//! ```text
//! dos-bench --list             print every experiment name, one per line
//! dos-bench <name>...          run the named experiments
//! dos-bench all                run every table and figure of the paper
//! dos-bench --json <bench>     print a gated bench's fresh report document
//! ```
//!
//! A lone experiment prints exactly its block; several (and `all`) are
//! separated by `######## name ########` banners. The gated benches
//! (`serve_bench`, `zenflow_bench`) are deterministic virtual-time runs of
//! a pinned configuration, compared against the golden committed under
//! `crates/bench/baselines/`; a gate failure exits 1. Re-baseline with
//! `dos-bench --json serve_bench > crates/bench/baselines/serve.json`.
//! An unknown name lists the known ones and exits 2.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use dos::runtime::cli::{exit_code, wants_help, CliError, Flags};
use dos_bench::{all_experiments, Experiment, Run};

const USAGE: &str = "dos-bench [--json] <name>... | all | --list";

fn is_artifact((_, run): &&Experiment) -> bool {
    matches!(run, Run::Artifact(_))
}

fn run(args: &[String]) -> Result<bool, CliError> {
    let registry = all_experiments();
    let mut flags = Flags::new(args);
    let list = flags.switch("--list");
    let json = flags.switch("--json");
    let names = flags.rest()?;
    if list {
        for (name, _) in &registry {
            println!("{name}");
        }
        return Ok(true);
    }

    let mut selected: Vec<Experiment> = Vec::new();
    for name in &names {
        match registry.iter().find(|(known, _)| known == name) {
            Some(found) => selected.push(*found),
            None if *name == "all" => selected.extend(registry.iter().filter(is_artifact)),
            None => {
                let known: Vec<&str> = registry.iter().map(|(known, _)| *known).collect();
                return Err(CliError::Usage(format!(
                    "unknown experiment `{name}`; known:\n  all\n  {}",
                    known.join("\n  ")
                )));
            }
        }
    }
    if selected.is_empty() {
        return Err(CliError::Usage("name at least one experiment".to_string()));
    }
    if let Some((name, _)) = selected.iter().find(|e| json && is_artifact(e)) {
        return Err(CliError::Usage(format!("--json: `{name}` has no report document")));
    }

    let banners = selected.len() > 1;
    let mut in_gate = true;
    for (name, run) in selected {
        if banners {
            println!("\n######## {name} ########");
        }
        match run {
            Run::Artifact(render) => print!("{}", render()),
            Run::Bench(bench, golden) => {
                let outcome = bench(golden)?;
                if json {
                    println!("{}", outcome.json);
                } else {
                    print!("{}", outcome.text);
                }
                match outcome.verdict {
                    Ok(()) => eprintln!("{name}: regression gate passed"),
                    Err(why) => {
                        eprintln!("{name}: regression gate failed: {why}");
                        in_gate = false;
                    }
                }
            }
        }
        if banners {
            println!();
        }
    }
    Ok(in_gate)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if wants_help(&args) {
        println!("usage: {USAGE}");
        return ExitCode::SUCCESS;
    }
    exit_code(run(&args), USAGE, 2)
}
