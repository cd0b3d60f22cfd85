//! The one command-line flag reader behind `dos-cli` and `dos-bench`.
//!
//! A command pulls what it understands out of its argument list —
//! [`Flags::switch`], [`Flags::value`], [`Flags::set`] — and then
//! closes the list with [`Flags::none`], [`Flags::one`] or
//! [`Flags::rest`], which reject whatever nobody pulled. Every failure
//! here is a [`CliError::Usage`], so the dispatcher can print the failing
//! command's usage line; failures while the command runs convert from
//! `String` into [`CliError::Run`] and print as the message alone.

use std::process::ExitCode;
use std::str::FromStr;

/// Why a command failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The command line was wrong; the usage line helps.
    Usage(String),
    /// The arguments parsed and the run itself failed.
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Run(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Run(msg.to_string())
    }
}

fn usage<T>(msg: String) -> Result<T, CliError> {
    Err(CliError::Usage(msg))
}

/// One command's arguments, consumed flag by flag.
#[derive(Debug)]
pub struct Flags<'a> {
    /// `None` once pulled.
    args: Vec<Option<&'a str>>,
}

impl<'a> Flags<'a> {
    /// Wraps the arguments that follow the command name.
    pub fn new(args: &'a [String]) -> Flags<'a> {
        Flags { args: args.iter().map(|a| Some(a.as_str())).collect() }
    }

    /// Pulls every occurrence of the boolean flag `name`.
    pub fn switch(&mut self, name: &str) -> bool {
        let mut seen = false;
        for slot in self.args.iter_mut().filter(|slot| **slot == Some(name)) {
            *slot = None;
            seen = true;
        }
        seen
    }

    /// Pulls `name VALUE` and parses the value; the last occurrence wins.
    /// A following token that starts with `--` is the next flag, not a
    /// value. Errors when the value is missing or does not parse.
    pub fn value<T: FromStr>(&mut self, name: &str) -> Result<Option<T>, CliError> {
        let mut found = None;
        while let Some(i) = self.args.iter().position(|slot| *slot == Some(name)) {
            self.args[i] = None;
            let raw = match self.args.get_mut(i + 1).and_then(Option::take) {
                Some(raw) if !raw.starts_with("--") => raw,
                _ => return usage(format!("{name} needs a value")),
            };
            match raw.parse() {
                Ok(parsed) => found = Some(parsed),
                Err(_) => return usage(format!("bad value `{raw}` for {name}")),
            }
        }
        Ok(found)
    }

    /// Overwrites `slot` with `name`'s value when the flag is present;
    /// errors as [`Flags::value`] does.
    pub fn set<T: FromStr>(&mut self, name: &str, slot: &mut T) -> Result<(), CliError> {
        if let Some(parsed) = self.value(name)? {
            *slot = parsed;
        }
        Ok(())
    }

    /// [`Flags::set`] for a count, which must not be zero.
    pub fn set_positive(&mut self, name: &str, slot: &mut usize) -> Result<(), CliError> {
        self.set(name, slot)?;
        if *slot == 0 {
            return usage(format!("{name} must be positive"));
        }
        Ok(())
    }

    /// Closes the list: what is left are the positional arguments, unless
    /// a flag nobody pulled is among them.
    pub fn rest(self) -> Result<Vec<&'a str>, CliError> {
        let left: Vec<&str> = self.args.into_iter().flatten().collect();
        match left.iter().find(|arg| arg.starts_with('-')) {
            Some(flag) => usage(format!("unknown flag `{flag}`")),
            None => Ok(left),
        }
    }

    /// Closes the list of a command that takes exactly one positional
    /// argument, described by `what` ("config path").
    pub fn one(self, what: &str) -> Result<&'a str, CliError> {
        match self.rest()?[..] {
            [] => usage(format!("missing {what}")),
            [only] => Ok(only),
            [_, extra, ..] => usage(format!("unexpected argument `{extra}`")),
        }
    }

    /// Closes the list of a command that takes no positional argument.
    pub fn none(self) -> Result<(), CliError> {
        match self.rest()?.first() {
            Some(extra) => usage(format!("unexpected argument `{extra}`")),
            None => Ok(()),
        }
    }
}

/// Whether the arguments ask for help (`--help` / `-h`).
pub fn wants_help(args: &[String]) -> bool {
    args.iter().any(|a| a == "--help" || a == "-h")
}

/// Turns a command's result into the process exit code: 0 for
/// `Ok(true)`, 1 for `Ok(false)` and for a run failure (message on
/// stderr), `usage_exit` for an argument error (message and the usage
/// text on stderr).
pub fn exit_code(result: Result<bool, CliError>, usage: &str, usage_exit: u8) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(CliError::Run(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprintln!("usage: {usage}");
            ExitCode::from(usage_exit)
        }
    }
}
