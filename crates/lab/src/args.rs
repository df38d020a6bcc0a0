//! Shared command-line error reporting for the workspace binaries.
//!
//! A bad flag or value is an operator mistake, not a program bug, so
//! the binaries report it as a normal CLI would: a one-line `error:`
//! message plus the usage synopsis on stderr, then exit status 2
//! (the conventional "usage error" code). Panicking would bury the
//! message under a backtrace pointer and report exit status 101.
//!
//! Lives in `hirise-lab` (the lowest crate with binaries) and is
//! used by the experiment harness's binaries too.

/// Prints `error: {message}` and the usage synopsis to stderr, then
/// exits with status 2.
pub fn arg_error(message: impl std::fmt::Display, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// Parses a flag's value, exiting via [`arg_error`] with the flag name
/// and offending text when it does not parse.
pub fn parse_flag_value<T: std::str::FromStr>(flag: &str, value: &str, usage: &str) -> T {
    value
        .parse()
        .unwrap_or_else(|_| arg_error(format!("invalid value {value:?} for {flag}"), usage))
}

/// Returns the flag's value from the argument iterator, exiting via
/// [`arg_error`] when it is missing.
pub fn flag_value(flag: &str, args: &mut impl Iterator<Item = String>, usage: &str) -> String {
    args.next()
        .unwrap_or_else(|| arg_error(format!("{flag} needs a value"), usage))
}
