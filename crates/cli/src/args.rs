//! Minimal flag parser: `--key value` pairs, repeated flags, positionals.

use std::collections::HashMap;

use crate::CliError;

/// Parsed arguments: positionals in order, flags by name (repeatable).
#[derive(Debug, Clone, Default)]
pub struct Args {
    positionals: Vec<String>,
    flags: HashMap<String, Vec<String>>,
    switches: Vec<String>,
}

/// Flags that take no value.
const SWITCHES: &[&str] = &[
    "diagram",
    "json",
    "dot",
    "shrink",
    "no-net",
    "audit-bounds",
    "telemetry",
    "multi",
    "pump-parallel",
    "parallel-detect",
];

impl Args {
    /// Parses raw arguments.
    ///
    /// # Errors
    ///
    /// Returns a usage error when a value-taking flag has no value.
    pub fn parse(raw: &[String]) -> Result<Args, CliError> {
        let mut args = Args::default();
        let mut it = raw.iter().peekable();
        while let Some(token) = it.next() {
            if let Some(name) = token
                .strip_prefix("--")
                .or_else(|| (token.starts_with('-') && token.len() == 2).then(|| &token[1..]))
            {
                if SWITCHES.contains(&name) {
                    args.switches.push(name.to_string());
                    continue;
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

    fn parse(tokens: &[&str]) -> Args {
        Args::parse(&tokens.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parses_flags_positionals_switches() {
        let a = parse(&["run.json", "--scope", "0,1", "--diagram", "--seed", "7"]);
        assert_eq!(a.positional(0), Some("run.json"));
        assert_eq!(a.get("scope"), Some("0,1"));
        assert!(a.switch("diagram"));
        assert!(!a.switch("json"));
        assert_eq!(a.get_or::<u64>("seed", 0).unwrap(), 7);
    }

    #[test]
    fn short_o_flag() {
        let a = parse(&["-o", "out.json"]);
        assert_eq!(a.get("o"), Some("out.json"));
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = parse(&["--channel", "0-1:empty", "--channel", "1-2:atmost:3"]);
        assert_eq!(a.get_all("channel").len(), 2);
        assert_eq!(a.get("channel"), Some("1-2:atmost:3"));
    }

    #[test]
    fn missing_value_is_usage_error() {
        let err = Args::parse(&["--seed".to_string()]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--seed"));
    }

    #[test]
    fn require_reports_missing_and_bad() {
        let a = parse(&["--n", "abc"]);
        assert!(a.require::<u64>("m").is_err());
        assert!(a.require::<u64>("n").is_err());
        assert!(a.require_positional(0, "FILE").is_err());
    }
}
