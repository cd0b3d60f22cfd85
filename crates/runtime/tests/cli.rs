//! The command-line surface: the `dos_runtime::cli` flag reader, and the
//! `dos-cli` binary's command table driven as a process.

use std::process::{Command, Output};

use dos_runtime::cli::{wants_help, CliError, Flags};

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn usage_msg<T: std::fmt::Debug>(result: Result<T, CliError>) -> String {
    match result {
        Err(CliError::Usage(msg)) => msg,
        other => panic!("expected a usage error, got {other:?}"),
    }
}

#[test]
fn typed_values_switches_and_the_positional_in_any_order() {
    let raw = args(&["--seed", "7", "cfg.json", "--json", "--out", "t.json"]);
    let mut flags = Flags::new(&raw);
    assert!(flags.switch("--json"));
    assert!(!flags.switch("--quick"));
    assert_eq!(flags.value::<u64>("--seed").unwrap(), Some(7));
    assert_eq!(flags.value::<String>("--out").unwrap().as_deref(), Some("t.json"));
    let mut ug = 25.0e9;
    flags.set("--ug", &mut ug).unwrap();
    assert_eq!(ug, 25.0e9, "an absent flag keeps the default");
    assert_eq!(flags.one("config path").unwrap(), "cfg.json");
}

#[test]
fn last_occurrence_of_a_repeated_flag_wins() {
    let raw = args(&["--seed", "1", "--seed", "2"]);
    let mut flags = Flags::new(&raw);
    assert_eq!(flags.value::<u64>("--seed").unwrap(), Some(2));
    flags.none().unwrap();
}

#[test]
fn missing_value_is_a_usage_error() {
    for raw in [args(&["--seed"]), args(&["--seed", "--json"])] {
        let mut flags = Flags::new(&raw);
        assert_eq!(usage_msg(flags.value::<u64>("--seed")), "--seed needs a value");
    }
}

#[test]
fn unparsable_and_zero_values_are_usage_errors() {
    let raw = args(&["--seed", "seven", "--iterations", "0"]);
    let mut flags = Flags::new(&raw);
    assert_eq!(usage_msg(flags.value::<u64>("--seed")), "bad value `seven` for --seed");
    let mut iterations = 8;
    assert_eq!(
        usage_msg(flags.set_positive("--iterations", &mut iterations)),
        "--iterations must be positive"
    );
}

#[test]
fn unknown_flags_are_rejected_by_every_closer() {
    let raw = args(&["cfg.json", "--nope"]);
    assert_eq!(usage_msg(Flags::new(&raw).rest()), "unknown flag `--nope`");
    assert_eq!(usage_msg(Flags::new(&raw).one("config path")), "unknown flag `--nope`");
    assert_eq!(usage_msg(Flags::new(&raw).none()), "unknown flag `--nope`");
}

#[test]
fn positionals_are_counted() {
    assert_eq!(usage_msg(Flags::new(&[]).one("config path")), "missing config path");
    let two = args(&["a.json", "b.json"]);
    assert_eq!(usage_msg(Flags::new(&two).one("config path")), "unexpected argument `b.json`");
    assert_eq!(usage_msg(Flags::new(&two).none()), "unexpected argument `a.json`");
    assert_eq!(Flags::new(&two).rest().unwrap(), ["a.json", "b.json"]);
}

#[test]
fn run_failures_convert_from_strings_and_help_is_detected() {
    assert_eq!(CliError::from("boom"), CliError::Run("boom".to_string()));
    assert_eq!(CliError::from("boom".to_string()), CliError::Run("boom".to_string()));
    assert!(wants_help(&args(&["trace", "-h"])));
    assert!(wants_help(&args(&["--help"])));
    assert!(!wants_help(&args(&["trace", "cfg.json"])));
}

const QUICKSTART: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/quickstart.json");

/// Runs `dos-cli` and returns (exit code, stdout, stderr).
fn dos_cli(argv: &[&str]) -> (i32, String, String) {
    let Output { status, stdout, stderr } =
        Command::new(env!("CARGO_BIN_EXE_dos-cli")).args(argv).output().expect("spawn dos-cli");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8 output");
    (status.code().expect("exit code"), text(stdout), text(stderr))
}

/// The command each `--help` line documents: the token after `dos-cli`.
fn help_commands() -> Vec<String> {
    let (code, stdout, stderr) = dos_cli(&["--help"]);
    assert_eq!((code, stderr.as_str()), (0, ""), "--help succeeds quietly");
    stdout
        .lines()
        .map(|line| {
            let mut words = line.split_whitespace();
            assert_eq!(words.next(), Some("dos-cli"), "usage line {line:?}");
            words.next().expect("command name").to_string()
        })
        .collect()
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    let commands = help_commands();
    assert_eq!(commands[0], "<config.json>", "the fallback mode leads");
    assert_eq!(dos_cli(&["-h"]).1, dos_cli(&["--help"]).1);
    for name in &commands[1..] {
        let (code, stdout, stderr) = dos_cli(&[name, "--help"]);
        assert_eq!((code, stderr.as_str()), (0, ""), "{name} --help");
        assert_eq!(stdout.lines().count(), 1, "{name} --help prints its own line only");
        assert!(stdout.starts_with(&format!("dos-cli {name} ")), "{stdout}");
    }
}

#[test]
fn documented_commands_and_the_command_table_agree() {
    // The module docs describe each command under a `name:` heading; the
    // table is observed through `--help`.
    let documented: Vec<String> = include_str!("../src/bin/dos-cli.rs")
        .lines()
        .filter_map(|line| line.strip_prefix("//! ")?.split_once(": "))
        .map(|(name, _)| name.to_string())
        .filter(|name| !name.contains(' '))
        .collect();
    assert_eq!(documented, help_commands());
}

#[test]
fn argument_errors_print_the_failing_commands_usage_only() {
    for (argv, complaint, usage) in [
        (&["conformance", "--nope"][..], "unknown flag `--nope`", "dos-cli conformance "),
        (&["trace"][..], "missing config path", "dos-cli trace "),
        (&["calibrate", "--rounds", "x"][..], "bad value `x` for --rounds", "dos-cli calibrate "),
        (&["check", "--seed"][..], "--seed needs a value", "dos-cli check "),
        (
            &[QUICKSTART, "--iterations", "0"][..],
            "--iterations must be positive",
            "dos-cli <config",
        ),
        (
            &["monitor", QUICKSTART, "--iterations", "0"][..],
            "--iterations must be positive",
            "dos-cli monitor ",
        ),
    ] {
        let (code, stdout, stderr) = dos_cli(argv);
        assert_eq!((code, stdout.as_str()), (1, ""), "{argv:?}");
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{argv:?}: {stderr}");
        assert_eq!(lines[0], format!("error: {complaint}"));
        assert!(lines[1].starts_with(&format!("usage: {usage}")), "{argv:?}: {stderr}");
    }
}

#[test]
fn runtime_errors_print_no_usage() {
    let (code, stdout, stderr) = dos_cli(&["conformance", "--quick", "--filter", "nosuch"]);
    assert_eq!((code, stdout.as_str()), (1, ""));
    assert_eq!(stderr, "error: --filter `nosuch` matched no conformance cells\n");

    // A document that parses but cannot be simulated is a typed error too,
    // never a panic or an attempt at a 40 GB schedule.
    for (tag, document) in [
        ("dp0", r#"{"model":"7B","data_parallel":0}"#),
        ("sg1", r#"{"model":"7B","subgroup_size":1}"#),
    ] {
        let path = std::env::temp_dir().join(format!("dos-cli-{tag}-{}.json", std::process::id()));
        std::fs::write(&path, document).expect("write config");
        let (code, stdout, stderr) = dos_cli(&[path.to_str().expect("utf-8 temp path")]);
        std::fs::remove_file(&path).ok();
        assert_eq!((code, stdout.as_str()), (1, ""), "{document}: {stderr}");
        assert!(stderr.starts_with("error: invalid config value: "), "{document}: {stderr}");
        assert!(!stderr.contains("panicked"), "{document}: {stderr}");
    }
}

#[test]
fn a_first_word_that_is_no_command_and_no_file_lists_the_commands() {
    let (code, _, stderr) = dos_cli(&["bogus-subcommand"]);
    assert_eq!(code, 1);
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
    assert!(stderr.contains("`bogus-subcommand` is neither a command"), "{stderr}");
    for name in &help_commands()[1..] {
        assert!(stderr.contains(name.as_str()), "{name} missing from {stderr}");
    }
}
