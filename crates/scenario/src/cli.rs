//! Strict command-line parsing for the `xui` CLI and the `serve_load`
//! binary.
//!
//! A binary declares the flags and options it accepts, and anything else
//! is a hard error: a misspelled flag (`--metrcs`, `--trave out.json`)
//! prints the usage text and exits with status 2 instead of being
//! silently ignored.
//!
//! Both `--opt value` and `--opt=value` spellings are accepted, and
//! `--help`/`-h` print the usage text and exit 0.

use std::fmt;

/// Declarative description of a binary's command line: boolean flags,
/// value-carrying options, and ordered positional arguments.
#[derive(Debug, Clone, Default)]
pub struct CliSpec {
    bin: String,
    about: String,
    flags: Vec<(String, String)>,
    options: Vec<(String, String, String)>,
    positionals: Vec<(String, String, bool)>,
}

/// Parse failure: the offending token plus what was expected. Callers
/// turn this into usage-plus-exit-2, directly or via
/// [`CliSpec::parse_or_exit`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument starting with `-` that the binary does not declare.
    UnknownFlag(String),
    /// A declared option appeared as the last token with no value.
    MissingValue(String),
    /// More bare arguments than declared positionals.
    UnexpectedPositional(String),
    /// A required positional argument was not supplied.
    MissingPositional(String),
    /// An option value failed to parse as the expected type.
    InvalidValue {
        /// The option name, e.g. `--threads`.
        option: String,
        /// The literal value given.
        value: String,
        /// What the value should have been, e.g. `a positive integer`.
        want: String,
    },
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownFlag(a) => write!(f, "unknown flag `{a}`"),
            Self::MissingValue(a) => write!(f, "option `{a}` requires a value"),
            Self::UnexpectedPositional(a) => write!(f, "unexpected argument `{a}`"),
            Self::MissingPositional(a) => write!(f, "missing required argument `<{a}>`"),
            Self::InvalidValue { option, value, want } => {
                write!(f, "invalid value `{value}` for `{option}`: expected {want}")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// The result of a successful parse: which flags were set, each option's
/// value, and the positional arguments in order.
#[derive(Debug, Clone, Default)]
pub struct Parsed {
    flags: Vec<String>,
    options: Vec<(String, String)>,
    positionals: Vec<String>,
}

impl Parsed {
    /// Whether the boolean flag `name` (e.g. `--metrics`) was given.
    #[must_use]
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The value of option `name`, if given (last occurrence wins).
    #[must_use]
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.options
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of option `name` parsed as `u64`.
    pub fn opt_u64(&self, name: &str) -> Result<Option<u64>, CliError> {
        self.opt_parsed(name, "an unsigned integer")
    }

    /// The value of option `name` parsed as `usize`.
    pub fn opt_usize(&self, name: &str) -> Result<Option<usize>, CliError> {
        self.opt_parsed(name, "an unsigned integer")
    }

    fn opt_parsed<T: std::str::FromStr>(
        &self,
        name: &str,
        want: &str,
    ) -> Result<Option<T>, CliError> {
        match self.opt(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| CliError::InvalidValue {
                option: name.to_string(),
                value: v.to_string(),
                want: want.to_string(),
            }),
        }
    }

    /// The positional arguments, in order.
    #[must_use]
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

impl CliSpec {
    /// Creates an empty spec for binary `bin` with a one-line description.
    #[must_use]
    pub fn new(bin: impl Into<String>, about: impl Into<String>) -> Self {
        Self {
            bin: bin.into(),
            about: about.into(),
            ..Self::default()
        }
    }

    /// The flags every sweep-driven experiment run shares:
    /// `--metrics`, `--trace <path>`, `--threads <n>`.
    #[must_use]
    pub fn bench(bin: impl Into<String>, about: impl Into<String>) -> Self {
        Self::new(bin, about)
            .flag("--metrics", "save a merged metrics snapshot under results/")
            .option("--trace", "PATH", "write a Chrome trace JSON to PATH")
            .option("--threads", "N", "sweep worker threads (overrides XUI_BENCH_THREADS)")
    }

    /// Declares a boolean flag.
    #[must_use]
    pub fn flag(mut self, name: &str, help: &str) -> Self {
        self.flags.push((name.to_string(), help.to_string()));
        self
    }

    /// Declares a value-carrying option.
    #[must_use]
    pub fn option(mut self, name: &str, value: &str, help: &str) -> Self {
        self.options
            .push((name.to_string(), value.to_string(), help.to_string()));
        self
    }

    /// Declares the next positional argument.
    #[must_use]
    pub fn positional(mut self, name: &str, help: &str, required: bool) -> Self {
        self.positionals
            .push((name.to_string(), help.to_string(), required));
        self
    }

    /// Renders the usage text.
    #[must_use]
    pub fn usage(&self) -> String {
        let mut s = format!("{} — {}\n\nusage: {}", self.bin, self.about, self.bin);
        for (name, _, required) in &self.positionals {
            if *required {
                s.push_str(&format!(" <{name}>"));
            } else {
                s.push_str(&format!(" [{name}]"));
            }
        }
        if !self.flags.is_empty() || !self.options.is_empty() {
            s.push_str(" [options]\n\noptions:\n");
        } else {
            s.push('\n');
        }
        let mut lines: Vec<(String, &str)> = Vec::new();
        for (name, value, help) in &self.options {
            lines.push((format!("{name} <{value}>"), help));
        }
        for (name, help) in &self.flags {
            lines.push((name.clone(), help));
        }
        let w = lines.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
        for (l, help) in lines {
            s.push_str(&format!("  {l:<w$}  {help}\n"));
        }
        s
    }

    /// Parses `args` (not including the binary name).
    pub fn parse_args<S: AsRef<str>>(&self, args: &[S]) -> Result<Parsed, CliError> {
        let mut parsed = Parsed::default();
        let mut it = args.iter().map(AsRef::as_ref);
        while let Some(a) = it.next() {
            if let Some(stripped) = a.strip_prefix("--") {
                let (name, inline) = match stripped.split_once('=') {
                    Some((n, v)) => (format!("--{n}"), Some(v.to_string())),
                    None => (a.to_string(), None),
                };
                if self.flags.iter().any(|(f, _)| *f == name) {
                    parsed.flags.push(name);
                } else if self.options.iter().any(|(o, _, _)| *o == name) {
                    let value = match inline {
                        Some(v) => v,
                        None => it
                            .next()
                            .ok_or_else(|| CliError::MissingValue(name.clone()))?
                            .to_string(),
                    };
                    parsed.options.push((name, value));
                } else {
                    return Err(CliError::UnknownFlag(a.to_string()));
                }
            } else if a.starts_with('-') && a.len() > 1 {
                return Err(CliError::UnknownFlag(a.to_string()));
            } else if parsed.positionals.len() < self.positionals.len() {
                parsed.positionals.push(a.to_string());
            } else {
                return Err(CliError::UnexpectedPositional(a.to_string()));
            }
        }
        for (i, (name, _, required)) in self.positionals.iter().enumerate() {
            if *required && parsed.positionals.len() <= i {
                return Err(CliError::MissingPositional(name.clone()));
            }
        }
        Ok(parsed)
    }

    /// Parses the process arguments. On error, prints the error and the
    /// usage text to stderr and exits with status 2; `--help`/`-h` print
    /// usage to stdout and exit 0.
    #[must_use]
    pub fn parse_or_exit(&self) -> Parsed {
        let args: Vec<String> = std::env::args().skip(1).collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("{}", self.usage());
            std::process::exit(0);
        }
        match self.parse_args(&args) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}\n\n{}", self.usage());
                std::process::exit(2);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CliSpec {
        CliSpec::bench("fig_test", "test spec")
    }

    #[test]
    fn parses_shared_bench_flags() {
        let p = spec()
            .parse_args(&["--metrics", "--trace", "out.json", "--threads=4"])
            .unwrap();
        assert!(p.flag("--metrics"));
        assert_eq!(p.opt("--trace"), Some("out.json"));
        assert_eq!(p.opt_usize("--threads").unwrap(), Some(4));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        // The pre-refactor binaries silently ignored misspellings like
        // this; now it must be rejected. `--bench-meta` is no longer a
        // flag at all.
        for flag in ["--bench-mata", "--bench-meta"] {
            let err = spec().parse_args(&[flag]).unwrap_err();
            assert_eq!(err, CliError::UnknownFlag(flag.to_string()));
            assert_eq!(err.to_string(), format!("unknown flag `{flag}`"));
        }
        let err = spec().parse_args(&["-x"]).unwrap_err();
        assert_eq!(err, CliError::UnknownFlag("-x".to_string()));
    }

    #[test]
    fn missing_value_is_an_error() {
        let err = spec().parse_args(&["--trace"]).unwrap_err();
        assert_eq!(err, CliError::MissingValue("--trace".to_string()));
        assert_eq!(err.to_string(), "option `--trace` requires a value");
    }

    #[test]
    fn invalid_numeric_value_is_an_error() {
        let err = spec()
            .parse_args(&["--threads", "many"])
            .unwrap()
            .opt_usize("--threads")
            .unwrap_err();
        assert!(matches!(err, CliError::InvalidValue { .. }));
    }

    #[test]
    fn positionals_are_ordered_and_bounded() {
        let s = CliSpec::new("xui", "cli")
            .positional("command", "subcommand", true)
            .positional("scenario", "scenario name", false);
        let p = s.parse_args(&["run", "fig6_timer_core"]).unwrap();
        assert_eq!(p.positionals(), ["run", "fig6_timer_core"]);
        let err = s.parse_args(&["run", "a", "b"]).unwrap_err();
        assert_eq!(err, CliError::UnexpectedPositional("b".to_string()));
        let err = s.parse_args(&[] as &[&str]).unwrap_err();
        assert_eq!(err, CliError::MissingPositional("command".to_string()));
    }

    #[test]
    fn last_occurrence_of_an_option_wins() {
        let p = spec().parse_args(&["--threads", "2", "--threads", "8"]).unwrap();
        assert_eq!(p.opt_usize("--threads").unwrap(), Some(8));
    }

    #[test]
    fn usage_names_every_declared_flag() {
        let u = spec().usage();
        for needle in ["--metrics", "--trace <PATH>", "--threads <N>"] {
            assert!(u.contains(needle), "usage missing {needle}: {u}");
        }
        assert!(!u.contains("--bench-meta"), "usage still offers --bench-meta: {u}");
    }
}
