//! The command-line flag reader shared by `backdroid-serve` and the
//! `backdroid-bench` binaries. Each binary names the flags it reads and
//! calls [`reject_unknown_flags`] first, so a misspelt or retired flag is
//! a usage error (exit status 2) instead of a silent default.

use std::str::FromStr;

/// The first argument that starts with `-` but names no flag in
/// `flags`, with or without an `=value` suffix.
pub fn unknown_flag<'a>(args: &'a [String], flags: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|a| {
        let name = a.split_once('=').map_or(*a, |(name, _)| name);
        a.starts_with('-') && !flags.contains(&name)
    })
}

/// Exits with status 2 when argv holds an argument that
/// [`unknown_flag`] reports against `flags`.
pub fn reject_unknown_flags(flags: &[&str]) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = unknown_flag(&args, flags) {
        eprintln!("error: unknown flag {flag:?}; accepted flags: {flags:?}");
        std::process::exit(2)
    }
}

/// The value following `--flag` (or embedded as `--flag=value`) in argv.
pub fn arg_value(flag: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == flag {
            return args.next();
        }
        if let Some(v) = a.strip_prefix(&format!("{flag}=")) {
            return Some(v.to_string());
        }
    }
    None
}

/// Whether argv holds the switch `flag`.
pub fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

/// Reports an invalid flag value and exits with status 2: a present flag
/// must never fall back to its default silently.
pub fn usage_error(flag: &str, value: &str, expected: &str) -> ! {
    eprintln!("error: {flag} {value:?} is invalid — expected {expected}");
    std::process::exit(2)
}

/// The value of `flag` parsed as `T`, or `None` when the flag is absent.
/// An unparseable value is a [`usage_error`] naming `expected`.
pub fn parsed_arg<T: FromStr>(flag: &str, expected: &str) -> Option<T> {
    arg_value(flag).map(|v| {
        v.parse::<T>()
            .unwrap_or_else(|_| usage_error(flag, &v, expected))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|a| a.to_string()).collect()
    }

    const FLAGS: &[&str] = &["-h", "--count", "--shards", "--direct", "--snapshot-dir"];

    #[test]
    fn unknown_flags_are_found_with_or_without_a_value() {
        let ok = argv(&[
            "--count",
            "8",
            "--shards=4",
            "--direct",
            "--snapshot-dir",
            "d",
            "-h",
        ]);
        assert_eq!(unknown_flag(&ok, FLAGS), None);
        assert_eq!(
            unknown_flag(&argv(&["--count", "8", "--shard", "4"]), FLAGS),
            Some("--shard")
        );
        assert_eq!(
            unknown_flag(&argv(&["--budgetmb", "1"]), FLAGS),
            Some("--budgetmb")
        );
        assert_eq!(
            unknown_flag(&argv(&["--budgetmb=1"]), FLAGS),
            Some("--budgetmb=1")
        );
        assert_eq!(unknown_flag(&argv(&["-"]), FLAGS), Some("-"));
        // Each binary accepts only its own list: values are never taken
        // for flags, and an empty list accepts no flag at all.
        assert_eq!(unknown_flag(&argv(&["10", "out.json"]), &[]), None);
        assert_eq!(unknown_flag(&argv(&["--small"]), &[]), Some("--small"));
    }
}
