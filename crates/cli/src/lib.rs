//! Implementation of the `wcp` command-line tool.
//!
//! The CLI wraps the library workflow end to end:
//!
//! ```sh
//! wcp generate --processes 6 --events 20 --seed 7 --plant 0.8 -o run.json
//! wcp info run.json
//! wcp detect run.json --scope 0,1,2 --algorithm token
//! wcp detect run.json --algorithm direct --diagram
//! wcp gcp run.json --channel 0-1:empty --channel 1-2:atmost:2
//! wcp render run.json --dot > run.dot
//! wcp bound --n 8 --m 100
//! ```
//!
//! Argument parsing is hand-rolled (the repo's dependency policy keeps the
//! tree lean; see DESIGN.md §6); every command is a pure function from
//! parsed arguments to output text, so the whole surface is unit-testable.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;

use std::fmt;

/// A CLI failure: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable problem description.
    pub message: String,
    /// Process exit code to use.
    pub code: u8,
}

impl CliError {
    /// Usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// Runtime error (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 1,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError::runtime(format!("io error: {e}"))
    }
}

impl From<wcp_trace::ComputationError> for CliError {
    fn from(e: wcp_trace::ComputationError) -> Self {
        CliError::runtime(e.to_string())
    }
}

impl From<wcp_obs::json::JsonError> for CliError {
    fn from(e: wcp_obs::json::JsonError) -> Self {
        CliError::runtime(format!("json error: {e}"))
    }
}

/// Top-level dispatch: parses `argv[1..]` and runs the command, returning
/// the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] for unknown commands, malformed arguments, or
/// failing operations.
pub fn run(argv: &[String]) -> Result<String, CliError> {
    let Some((command, rest)) = argv.split_first() else {
        return Err(CliError::usage(USAGE));
    };
    match command.as_str() {
        "generate" => commands::generate(rest),
        "info" => commands::info(rest),
        "detect" => commands::detect(rest),
        "gcp" => commands::gcp(rest),
        "render" => commands::render(rest),
        "lattice" => commands::lattice(rest),
        "trace" => commands::trace(rest),
        "stats" => commands::stats(rest),
        "top" => commands::top(rest),
        "obs-report" => commands::obs_report(rest),
        "net-demo" => commands::net_demo(rest),
        "multi-demo" => commands::multi_demo(rest),
        "fuzz" => commands::fuzz(rest),
        "serve" => commands::serve(rest),
        "bound" => commands::bound(rest),
        "help" | "-h" | "--help" => Ok(USAGE.to_string()),
        other => Err(CliError::usage(format!(
            "unknown command `{other}`\n{USAGE}"
        ))),
    }
}

/// The usage text.
pub const USAGE: &str = "\
wcp — distributed detection of conjunctive predicates

USAGE:
  wcp generate --processes N --events M [--seed S] [--density D]
               [--plant F] [--topology uniform|ring|cs:K|nb:K] -o FILE
               (N·M ≤ 1000000; cs:K needs 1 ≤ K < N, nb:K needs K ≥ 1)
  wcp info FILE
  wcp detect FILE [--scope 0,1,2] [--algorithm token|checker|direct|lattice|multi:G|parallel[:T]]
              [--diagram] [--json] [--slice OUT.json]
  wcp gcp FILE [--scope 0,1,2] [--channel FROM-TO:empty|atmost:K|atleast:K]...
  wcp render FILE [--dot] [--scope 0,1,2]
  wcp lattice FILE [--scope 0,1,2] [--max-states K]
  wcp trace FILE --events OUT.jsonl [--scope 0,1,2] [--algorithm ...]
            [--capacity K] [--json]
  wcp stats FILE [--scope 0,1,2] [--seed S] [--capacity K]
  wcp top FILE [--scope 0,1,2] [--interval-ms MS] [--frames K]
          [--transport tcp|loopback | --peer I --addrs HOST:PORT,...]
          [--deadline SECS]
  wcp obs-report FILE [--scope 0,1,2] [--events OUT.jsonl]
             [--transport tcp|loopback | --peer I --addrs HOST:PORT,...]
             [--deadline SECS]
  wcp net-demo FILE [--scope 0,1,2] [--algorithm token|multi:G|checker|direct|direct+par]
               [--transport tcp|loopback] [--fault-seed S] [--drop P]
               [--delay P] [--duplicate P] [--reorder P] [--reset P] [--json]
  wcp multi-demo FILE [--predicates K] [--transport tcp|loopback] [--seed S]
                 [--pump-threads T] [--fault-seed S] [--drop P] [--delay P]
                 [--duplicate P] [--reorder P] [--reset P] [--deadline SECS]
  wcp serve FILE --peer I --addrs HOST:PORT,HOST:PORT,...
            [--scope 0,1,2] [--deadline SECS] [--telemetry]
            [--multi [--predicates K] [--pump-threads T]]
  wcp fuzz [--seed S] [--cases K] [--shrink] [--no-net] [--multi]
           [--pump-parallel] [--parallel-detect] [--audit-bounds]
  wcp bound --n N --m M    (2 ≤ N ≤ 1000, M ≥ 1, N·M ≤ 1000000)
  wcp help";
