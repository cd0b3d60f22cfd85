//! The `dos-bench` binary driven as a process against the registry it
//! dispatches over.

use std::collections::HashSet;
use std::process::Command;

use dos_bench::all_experiments;

/// Runs `dos-bench` and returns (exit code, stdout, stderr).
fn dos_bench(argv: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_dos-bench")).args(argv).output().expect("spawn");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (out.status.code().expect("exit code"), text(out.stdout), text(out.stderr))
}

fn registry_names() -> Vec<&'static str> {
    all_experiments().into_iter().map(|(name, _)| name).collect()
}

#[test]
fn list_is_the_registry_in_order_without_duplicates() {
    let (code, stdout, _) = dos_bench(&["--list"]);
    assert_eq!(code, 0);
    let listed: Vec<&str> = stdout.lines().collect();
    assert_eq!(listed, registry_names());
    assert_eq!(listed.iter().collect::<HashSet<_>>().len(), listed.len(), "duplicate name");
}

#[test]
fn experiments_md_and_the_registry_name_the_same_entries() {
    let doc = include_str!("../../../EXPERIMENTS.md");
    let registry = registry_names();
    // Back-ticked words of the registry's naming families.
    let families = ["table", "fig", "v100_", "ablation_", "extension_"];
    let named: Vec<&str> = doc
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|word| word.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .filter(|word| families.iter().any(|f| word.starts_with(f)) || word.ends_with("_bench"))
        .collect();
    for word in &named {
        assert!(registry.contains(word), "EXPERIMENTS.md names `{word}`, not in the registry");
    }
    for name in registry {
        assert!(named.contains(&name), "`{name}` is not recorded in EXPERIMENTS.md");
    }
}

#[test]
fn unknown_name_exits_two_and_lists_the_known_ones() {
    let (code, stdout, stderr) = dos_bench(&["fig99_nosuch"]);
    assert_eq!((code, stdout.as_str()), (2, ""));
    assert!(stderr.contains("unknown experiment `fig99_nosuch`"), "{stderr}");
    for name in registry_names() {
        assert!(stderr.contains(name), "{name} missing from {stderr}");
    }
}

#[test]
fn help_exits_zero_and_a_lone_artifact_prints_exactly_its_block() {
    let (code, stdout, stderr) = dos_bench(&["--help"]);
    assert_eq!((code, stderr.as_str()), (0, ""));
    assert!(stdout.starts_with("usage: dos-bench "), "{stdout}");
    let (code, stdout, _) = dos_bench(&["table2_model_zoo"]);
    assert_eq!(code, 0);
    assert_eq!(stdout, dos_bench::tables::table2_model_zoo());
}
