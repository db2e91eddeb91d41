//! Minimal flag parser: `--key value` pairs, repeated flags, positionals,
//! checked against the flags each command reads.

use std::collections::HashMap;

use crate::CliError;

/// Parsed arguments: positionals in order, flags by name (repeatable).
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Every command's flags: its name, the flags that take a value, and the
/// switches, each list space-separated. [`Args::parse`] refuses any other
/// flag.
pub const COMMANDS: &[(&str, &str, &str)] = &[
    (
        "generate",
        "processes events seed density plant topology o",
        "",
    ),
    ("info", "", ""),
    ("detect", "scope algorithm slice", "diagram json"),
    ("trace", "scope algorithm capacity events", "json"),
    ("stats", "scope seed capacity", ""),
    ("gcp", "scope channel", "json"),
    ("render", "scope", "dot"),
    ("lattice", "scope max-states", ""),
    ("bound", "n m", ""),
    (
        "top",
        "scope interval-ms frames transport peer addrs deadline",
        "",
    ),
    (
        "obs-report",
        "scope events transport peer addrs deadline",
        "",
    ),
    (
        "net-demo",
        "scope algorithm transport deadline fault-seed drop delay duplicate reorder reset",
        "json",
    ),
    (
        "multi-demo",
        "predicates transport seed pump-threads deadline fault-seed drop delay duplicate \
         reorder reset",
        "",
    ),
    (
        "serve",
        "scope peer addrs deadline predicates pump-threads",
        "telemetry multi",
    ),
    (
        "fuzz",
        "seed cases",
        "shrink no-net multi pump-parallel parallel-detect audit-bounds",
    ),
];

impl Args {
    /// Parses the raw arguments of `wcp command`.
    ///
    /// # Errors
    ///
    /// Returns a usage error for a command without a [`COMMANDS`] row, a
    /// flag the command does not read, or a value-taking flag with no
    /// value.
    pub fn parse(command: &str, raw: &[String]) -> Result<Args, CliError> {
        let &(_, flags, switches) = COMMANDS
            .iter()
            .find(|(name, _, _)| *name == command)
            .ok_or_else(|| CliError::usage(format!("unknown command `{command}`")))?;
        let mut args = Args::default();
        let mut it = raw.iter();
        while let Some(token) = it.next() {
            if let Some(name) = token
                .strip_prefix("--")
                .or_else(|| (token.starts_with('-') && token.len() == 2).then(|| &token[1..]))
            {
                if switches.split_whitespace().any(|s| s == name) {
                    args.switches.push(name.to_string());
                    continue;
                }
                if !flags.split_whitespace().any(|f| f == name) {
                    return Err(CliError::usage(format!(
                        "`wcp {command}` takes no flag {token}"
                    )));
                }
                let Some(value) = it.next() else {
                    return Err(CliError::usage(format!("flag --{name} needs a value")));
                };
                args.flags
                    .entry(name.to_string())
                    .or_default()
                    .push(value.clone());
            } else {
                args.positionals.push(token.clone());
            }
        }
        Ok(args)
    }

    /// The `index`-th positional argument.
    pub fn positional(&self, index: usize) -> Option<&str> {
        self.positionals.get(index).map(String::as_str)
    }

    /// A required positional.
    ///
    /// # Errors
    ///
    /// Usage error naming the missing argument.
    pub fn require_positional(&self, index: usize, name: &str) -> Result<&str, CliError> {
        self.positional(index)
            .ok_or_else(|| CliError::usage(format!("missing {name}")))
    }

    /// The last value of a flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.last())
            .map(String::as_str)
    }

    /// All values of a repeatable flag.
    pub fn get_all(&self, name: &str) -> &[String] {
        self.flags.get(name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Whether a no-value switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// A required flag parsed into `T`.
    ///
    /// # Errors
    ///
    /// Usage error when missing or unparsable.
    pub fn require<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        let raw = self
            .get(name)
            .ok_or_else(|| CliError::usage(format!("missing --{name}")))?;
        raw.parse()
            .map_err(|_| CliError::usage(format!("--{name}: cannot parse `{raw}`")))
    }

    /// An optional flag parsed into `T`, with a default.
    ///
    /// # Errors
    ///
    /// Usage error when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::usage(format!("--{name}: cannot parse `{raw}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    fn parse(command: &str, tokens: &[&str]) -> Args {
        Args::parse(command, &raw(tokens)).unwrap()
    }

    #[test]
    fn parses_flags_positionals_switches() {
        let a = parse("detect", &["run.json", "--scope", "0,1", "--diagram"]);
        assert_eq!(a.positional(0), Some("run.json"));
        assert_eq!(a.get("scope"), Some("0,1"));
        assert!(a.switch("diagram"));
        assert!(!a.switch("json"));
        let a = parse("stats", &["--seed", "7"]);
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn short_o_flag() {
        let a = parse("generate", &["-o", "out.json"]);
        assert_eq!(a.get("o"), Some("out.json"));
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = parse(
            "gcp",
            &["--channel", "0-1:empty", "--channel", "1-2:atmost:3"],
        );
        assert_eq!(a.get_all("channel").len(), 2);
        assert_eq!(a.get("channel"), Some("1-2:atmost:3"));
    }

    #[test]
    fn missing_value_is_usage_error() {
        let err = Args::parse("stats", &raw(&["--seed"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--seed"));
    }

    #[test]
    fn a_flag_the_command_does_not_read_is_a_usage_error() {
        for (command, tokens, flag) in [
            ("info", &["t.json", "--bogus", "1"][..], "--bogus"),
            (
                "fuzz",
                &["--seed", "1", "--net-batch", "--cases", "1"],
                "--net-batch",
            ),
            ("detect", &["t.json", "--seed", "1"], "--seed"),
            ("generate", &["-x", "1"], "-x"),
        ] {
            let err = Args::parse(command, &raw(tokens)).unwrap_err();
            assert_eq!(err.code, 2, "{command}");
            assert!(err.message.contains(flag), "{}", err.message);
            assert!(
                err.message.contains(&format!("wcp {command}")),
                "{}",
                err.message
            );
        }
        assert_eq!(Args::parse("nope", &[]).unwrap_err().code, 2);
    }

    #[test]
    fn require_reports_missing_and_bad() {
        let a = parse("bound", &["--n", "abc"]);
        assert!(a.require::<u64>("m").is_err());
        assert!(a.require::<u64>("n").is_err());
        assert!(a.require_positional(0, "FILE").is_err());
    }
}
