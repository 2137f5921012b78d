//! The one flag parser behind the `emc-*` tools and the campaign-backed
//! figure binaries.
//!
//! [`Flags`] walks the command line; each binary keeps its own `match`
//! over flag names and its own defaults. A flag the binary does not
//! know, a missing value or a value that does not parse becomes a
//! [`UsageError`] naming the flag, and [`UsageError::exit`] reports it
//! with the binary's usage line and exits with status 2, before any
//! work starts. Status 2 stays apart from the 1 that `emc-lint` and
//! `emc-fuzz` return when a check fails.

use std::ffi::OsString;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

/// A rejected command line: what was wrong, and the binary's usage line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UsageError {
    /// What was wrong, naming the flag.
    pub(crate) message: String,
    /// The binary's name followed by its flag synopsis.
    pub(crate) usage: String,
}

impl UsageError {
    /// Prints `error: …` and `usage: …` to stderr and exits with status 2.
    pub fn exit(&self) -> ! {
        eprintln!("error: {}", self.message);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2)
    }
}

/// A cursor over a command line's arguments.
#[derive(Debug)]
pub struct Flags {
    args: std::vec::IntoIter<String>,
    usage: String,
}

impl Flags {
    /// The process's arguments. The usage line is the file name of
    /// argv\[0\] followed by `synopsis`. An argument that is not UTF-8
    /// is an error.
    pub fn from_env(synopsis: &str) -> Result<Self, UsageError> {
        let mut args = std::env::args_os();
        let argv0 = PathBuf::from(args.next().unwrap_or_default());
        let bin = argv0.file_name().unwrap_or(argv0.as_os_str());
        let mut flags = Self::new(&bin.to_string_lossy(), synopsis, Vec::new());
        let args = args
            .map(OsString::into_string)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|arg| flags.error(format!("argument {arg:?} is not UTF-8")))?;
        flags.args = args.into_iter();
        Ok(flags)
    }

    /// The arguments `args` (argv\[0\] excluded) of the binary `bin`.
    pub(crate) fn new(bin: &str, synopsis: &str, args: impl IntoIterator<Item = String>) -> Self {
        Self {
            args: args.into_iter().collect::<Vec<_>>().into_iter(),
            usage: format!("{bin} {synopsis}"),
        }
    }

    /// The next argument, read as a flag name; `None` at the end.
    pub fn next_flag(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The argument after `flag`, parsed as a `T`.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<T, UsageError>
    where
        T::Err: Display,
    {
        let raw = self
            .args
            .next()
            .ok_or_else(|| self.error(format!("{flag} needs a value")))?;
        raw.parse()
            .map_err(|e| self.error(format!("{flag} {raw:?}: {e}")))
    }

    /// The error for a flag the binary does not know.
    pub fn unknown(&self, flag: &str) -> UsageError {
        self.error(format!("unknown flag {flag:?}"))
    }

    /// An error with this command line's usage line.
    pub fn error(&self, message: impl Into<String>) -> UsageError {
        UsageError {
            message: message.into(),
            usage: self.usage.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(words: &[&str]) -> Flags {
        Flags::new("tool", "[--n N]", words.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn a_value_parses_and_the_cursor_moves_past_it() {
        let mut f = flags(&["--n", "7", "--smoke"]);
        assert_eq!(f.next_flag().as_deref(), Some("--n"));
        assert_eq!(f.value::<u32>("--n"), Ok(7));
        assert_eq!(f.next_flag().as_deref(), Some("--smoke"));
        assert_eq!(f.next_flag(), None);
    }

    #[test]
    fn a_missing_value_names_its_flag() {
        let mut f = flags(&["--n"]);
        f.next_flag();
        let e = f.value::<u32>("--n").unwrap_err();
        assert_eq!(e.message, "--n needs a value");
        assert_eq!(e.usage, "tool [--n N]");
    }

    #[test]
    fn an_unparsable_value_names_its_flag_and_value() {
        let mut f = flags(&["--n", "-3"]);
        f.next_flag();
        let e = f.value::<u32>("--n").unwrap_err();
        assert!(e.message.starts_with("--n \"-3\": "), "{}", e.message);
    }

    #[test]
    fn an_unknown_flag_is_named() {
        let e = flags(&["--frob"]).unknown("--frob");
        assert_eq!(e.message, "unknown flag \"--frob\"");
        assert_eq!(e.usage, "tool [--n N]");
    }
}
