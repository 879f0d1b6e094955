//! Minimal `--key value` argument parsing.

use blockrep_net::DeliveryMode;
use blockrep_types::Scheme;
use core::fmt;
use std::collections::BTreeMap;

/// A parsed command line: positional arguments and `--key value` flags.
///
/// # Examples
///
/// ```
/// use blockrep_cli::args::Parsed;
///
/// let p = Parsed::parse(["simulate", "availability", "--rho", "0.1", "--sites", "5"]
///     .iter().map(|s| s.to_string())).unwrap();
/// assert_eq!(p.positional(0), Some("simulate"));
/// assert_eq!(p.flag_f64("rho", 0.05).unwrap(), 0.1);
/// assert_eq!(p.flag_usize("sites", 3).unwrap(), 5);
/// assert_eq!(p.flag_usize("blocks", 64).unwrap(), 64); // default
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Parsed {
    positionals: Vec<String>,
    flags: BTreeMap<String, String>,
}

/// Flags that take no value (their presence means "on"). Everything else
/// written as `--key` consumes the next argument as its value.
const BOOLEAN_FLAGS: &[&str] = &["stats", "trace", "journal", "journaled", "deny"];

/// A command-line usage error: printed to stderr with the usage text, and
/// the process exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError(pub String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for UsageError {}

impl Parsed {
    /// Parses an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// [`UsageError`] if a `--flag` has no value or a flag repeats.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Parsed, UsageError> {
        let mut out = Parsed::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                let value = if BOOLEAN_FLAGS.contains(&key) {
                    "true".to_string()
                } else {
                    iter.next()
                        .ok_or_else(|| UsageError(format!("flag --{key} needs a value")))?
                };
                if out.flags.insert(key.to_string(), value).is_some() {
                    return Err(UsageError(format!("flag --{key} given twice")));
                }
            } else {
                out.positionals.push(arg);
            }
        }
        Ok(out)
    }

    /// The `i`-th positional argument.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Number of positional arguments.
    pub fn num_positionals(&self) -> usize {
        self.positionals.len()
    }

    /// A raw flag value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Every flag key given: a subcommand checks them against the flags it
    /// reads, to reject typos.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.flags.keys().map(String::as_str)
    }

    /// Whether a boolean flag (see the crate's boolean-flag list, e.g.
    /// `--stats`, `--trace`) was given.
    pub fn flag_bool(&self, key: &str) -> bool {
        self.flag(key).is_some()
    }

    /// A `f64` flag with a default.
    ///
    /// # Errors
    ///
    /// [`UsageError`] when present but unparsable.
    pub fn flag_f64(&self, key: &str, default: f64) -> Result<f64, UsageError> {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| UsageError(format!("--{key}: expected a number, got {raw:?}"))),
        }
    }

    /// A `usize` flag with a default.
    ///
    /// # Errors
    ///
    /// [`UsageError`] when present but unparsable.
    pub fn flag_usize(&self, key: &str, default: usize) -> Result<usize, UsageError> {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| UsageError(format!("--{key}: expected an integer, got {raw:?}"))),
        }
    }

    /// A `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// [`UsageError`] when present but unparsable.
    pub fn flag_u64(&self, key: &str, default: u64) -> Result<u64, UsageError> {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| UsageError(format!("--{key}: expected an integer, got {raw:?}"))),
        }
    }

    /// A scheme flag (`voting` / `available-copy` (`ac`) /
    /// `naive-available-copy` (`naive`, `nac`)).
    ///
    /// # Errors
    ///
    /// [`UsageError`] on an unknown scheme name.
    pub fn flag_scheme(&self, key: &str, default: Scheme) -> Result<Scheme, UsageError> {
        match self.flag(key) {
            None => Ok(default),
            Some(raw) => parse_scheme(raw),
        }
    }

    /// A delivery-mode flag (`multicast` / `unicast`).
    ///
    /// # Errors
    ///
    /// [`UsageError`] on an unknown mode.
    pub fn flag_mode(&self, key: &str, default: DeliveryMode) -> Result<DeliveryMode, UsageError> {
        match self.flag(key) {
            None => Ok(default),
            Some("multicast") => Ok(DeliveryMode::Multicast),
            Some("unicast") => Ok(DeliveryMode::Unicast),
            Some(raw) => Err(UsageError(format!(
                "--{key}: expected multicast or unicast, got {raw:?}"
            ))),
        }
    }
}

/// Checks that flag `--key`'s value is above zero: a count, size, rate or
/// duration of zero (or, for a float, a negative or NaN) is a usage error,
/// not a panic deep inside an experiment.
///
/// # Errors
///
/// [`UsageError`] when `value` is not greater than zero.
pub fn positive<T: PartialOrd + Default + fmt::Display>(
    key: &str,
    value: T,
) -> Result<T, UsageError> {
    if value > T::default() {
        Ok(value)
    } else {
        Err(UsageError(format!(
            "--{key}: must be positive, got {value}"
        )))
    }
}

/// Parses a scheme name, with short aliases.
///
/// # Errors
///
/// [`UsageError`] on an unknown name.
pub fn parse_scheme(raw: &str) -> Result<Scheme, UsageError> {
    match raw {
        "voting" | "v" | "mcv" => Ok(Scheme::Voting),
        "available-copy" | "ac" => Ok(Scheme::AvailableCopy),
        "naive-available-copy" | "naive" | "nac" => Ok(Scheme::NaiveAvailableCopy),
        _ => Err(UsageError(format!(
            "unknown scheme {raw:?} (expected voting, available-copy, or naive-available-copy)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Parsed, UsageError> {
        Parsed::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positionals_and_flags_interleave() {
        let p = parse(&["fig", "--rho", "0.1", "9"]).unwrap();
        assert_eq!(p.positional(0), Some("fig"));
        assert_eq!(p.positional(1), Some("9"));
        assert_eq!(p.flag("rho"), Some("0.1"));
        assert_eq!(p.num_positionals(), 2);
    }

    #[test]
    fn missing_value_is_a_usage_error() {
        let err = parse(&["x", "--rho"]).unwrap_err();
        assert!(err.to_string().contains("--rho"));
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(parse(&["--a", "1", "--a", "2"]).is_err());
    }

    #[test]
    fn typed_flags_parse_and_default() {
        let p = parse(&["--rho", "0.25", "--sites", "7"]).unwrap();
        assert_eq!(p.flag_f64("rho", 0.05).unwrap(), 0.25);
        assert_eq!(p.flag_usize("sites", 3).unwrap(), 7);
        assert_eq!(p.flag_u64("ops", 100).unwrap(), 100);
        assert!(p.flag_f64("sites", 0.0).is_ok()); // 7 parses as f64 too
        assert!(parse(&["--rho", "abc"])
            .unwrap()
            .flag_f64("rho", 0.0)
            .is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let p = parse(&["simulate", "--stats", "traffic", "--trace", "--ops", "10"]).unwrap();
        assert!(p.flag_bool("stats"));
        assert!(p.flag_bool("trace"));
        assert!(!p.flag_bool("json"));
        // The word after a boolean flag is a positional, not its value.
        assert_eq!(p.positional(1), Some("traffic"));
        assert_eq!(p.flag("ops"), Some("10"));
    }

    #[test]
    fn scheme_aliases() {
        assert_eq!(parse_scheme("voting").unwrap(), Scheme::Voting);
        assert_eq!(parse_scheme("mcv").unwrap(), Scheme::Voting);
        assert_eq!(parse_scheme("ac").unwrap(), Scheme::AvailableCopy);
        assert_eq!(parse_scheme("nac").unwrap(), Scheme::NaiveAvailableCopy);
        assert_eq!(parse_scheme("naive").unwrap(), Scheme::NaiveAvailableCopy);
        assert!(parse_scheme("paxos").is_err());
    }

    #[test]
    fn mode_flag() {
        let p = parse(&["--net", "unicast"]).unwrap();
        assert_eq!(
            p.flag_mode("net", DeliveryMode::Multicast).unwrap(),
            DeliveryMode::Unicast
        );
        let p = parse(&[]).unwrap();
        assert_eq!(
            p.flag_mode("net", DeliveryMode::Multicast).unwrap(),
            DeliveryMode::Multicast
        );
    }
}
