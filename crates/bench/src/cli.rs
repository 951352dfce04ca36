//! The command line of the harness binaries.
//!
//! Every binary takes some of three flags, each spelled one way with its
//! value as the next argument, plus positional words (models or targets):
//!
//! ```text
//! --quick            the reduced grid
//! --threads N        the worker-pool width (default: every core)
//! --bench-json PATH  append the run's pool timings to the JSON array in PATH
//! ```
//!
//! A flag the binary does not take, a repeated flag or word, a missing or
//! bad value, and a word where the binary takes none exit 2.

use std::path::PathBuf;

use crate::sweep;
use tnpu_models::registry;

/// A flag a binary may take.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flag {
    /// `--quick`.
    Quick,
    /// `--threads N`.
    Threads,
    /// `--bench-json PATH`.
    BenchJson,
}

impl Flag {
    /// The flag as spelled on the command line.
    fn name(self) -> &'static str {
        match self {
            Flag::Quick => "--quick",
            Flag::Threads => "--threads",
            Flag::BenchJson => "--bench-json",
        }
    }
}

/// A parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// `--quick` was given.
    pub quick: bool,
    /// The `--threads` value.
    pub(crate) threads: Option<usize>,
    /// The `--bench-json` path.
    pub(crate) bench_json: Option<PathBuf>,
    /// Positional words, in order.
    pub words: Vec<String>,
    /// The arguments as given, space-joined: the label of the
    /// `--bench-json` record.
    pub(crate) line: String,
}

/// Parse `args` (without the program name) for a binary that takes
/// `flags` and, if `words`, positional words.
///
/// # Errors
///
/// A one-line message naming the offending argument.
pub fn parse(args: &[String], flags: &[Flag], words: bool) -> Result<Args, String> {
    let mut out = Args {
        line: args.join(" "),
        ..Args::default()
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if !arg.starts_with("--") {
            if !words {
                return Err(format!("unexpected argument: {arg}"));
            }
            if out.words.contains(arg) {
                return Err(format!("{arg} given twice"));
            }
            out.words.push(arg.clone());
            continue;
        }
        let Some(&flag) = flags.iter().find(|f| f.name() == arg) else {
            return Err(format!("unknown flag: {arg}"));
        };
        let mut value = |what: &str| iter.next().ok_or(format!("{arg} wants {what}"));
        let repeated = match flag {
            Flag::Quick => std::mem::replace(&mut out.quick, true),
            Flag::Threads => {
                let v = value("a positive integer")?;
                let n = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or(format!("{arg} wants a positive integer, got {v:?}"))?;
                out.threads.replace(n).is_some()
            }
            Flag::BenchJson => out.bench_json.replace(value("a path")?.into()).is_some(),
        };
        if repeated {
            return Err(format!("{arg} given twice"));
        }
    }
    Ok(out)
}

/// Parse the process's arguments (see [`parse`]) and pin the pool width
/// to `--threads`. Exits 2 on a usage error.
#[must_use]
pub fn from_env(flags: &[Flag], words: bool) -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let parsed = parse(&args, flags, words).unwrap_or_else(|e| usage_error(&e));
    if let Some(n) = parsed.threads {
        sweep::set_threads(n);
    }
    parsed
}

/// The positional words as model names, or `default` if there are none.
/// Exits 2 on a word that names no registered model.
#[must_use]
pub fn models<'a>(args: &'a Args, default: &[&'a str]) -> Vec<&'a str> {
    if args.words.is_empty() {
        return default.to_vec();
    }
    for word in &args.words {
        if registry::model(word).is_none() {
            usage_error(&format!("unknown model: {word}"));
        }
    }
    args.words.iter().map(String::as_str).collect()
}

/// Print the pool timings to stderr and append the `--bench-json` record
/// (see [`sweep::finish_session`]). Exits 1 if the record cannot be
/// written.
pub fn finish(args: &Args) {
    if let Err(e) = sweep::finish_session(&args.line, args.bench_json.as_deref()) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Exit 1 with `message` unless `holds`: the check each functional
/// binary makes that no cell contradicts the paper or the fault model.
pub fn gate(holds: bool, message: &str) {
    if !holds {
        eprintln!("{message}");
        std::process::exit(1);
    }
}

fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    const ALL: &[Flag] = &[Flag::Quick, Flag::Threads, Flag::BenchJson];

    #[test]
    fn parses_every_flag_and_keeps_words_in_order() {
        let a = parse(
            &args("df --quick --threads 3 ncf --bench-json out.json"),
            ALL,
            true,
        )
        .expect("valid");
        assert!(a.quick);
        assert_eq!(a.threads, Some(3));
        assert_eq!(a.bench_json, Some(PathBuf::from("out.json")));
        assert_eq!(a.words, ["df", "ncf"]);
        assert_eq!(a.line, "df --quick --threads 3 ncf --bench-json out.json");
    }

    #[test]
    fn rejects_what_the_binary_does_not_take() {
        for (line, flags, words, needle) in [
            ("--deny-undetected", ALL, true, "unknown flag"),
            ("--deny-corrupted", ALL, true, "unknown flag"),
            ("--quick", &[Flag::Threads][..], true, "unknown flag"),
            (
                "--bench-json x",
                &[Flag::Quick, Flag::Threads],
                true,
                "unknown flag",
            ),
            ("--threads=2", ALL, true, "unknown flag"),
            ("--bench-json=x", ALL, true, "unknown flag"),
            ("df", ALL, false, "unexpected argument"),
            ("--threads", ALL, true, "wants a positive integer"),
            ("--threads 0", ALL, true, "got \"0\""),
            ("--threads two", ALL, true, "got \"two\""),
            ("--bench-json", ALL, true, "wants a path"),
            ("--threads 1 --threads 8", ALL, true, "given twice"),
            ("--quick --quick", ALL, true, "given twice"),
            ("--bench-json a --bench-json b", ALL, true, "given twice"),
            ("df ncf df", ALL, true, "given twice"),
        ] {
            let err = parse(&args(line), flags, words).expect_err(line);
            assert!(err.contains(needle), "`{line}` -> `{err}`");
        }
    }
}
