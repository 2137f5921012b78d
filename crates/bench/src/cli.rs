//! The one flag parser behind the `emc-*` tools and the campaign-backed
//! figure binaries.
//!
//! [`Flags`] walks the command line; each binary keeps its own `match`
//! over flag names and its own defaults. A flag the binary does not
//! know, a missing value or a value that does not parse becomes a
//! [`UsageError`] naming the flag, and [`UsageError::exit`] reports it
//! with the binary's usage line and exits with status 2, before any
//! work starts. Status 2 stays apart from the 1 that `emc-lint` and
//! `emc-fuzz` return when a check fails. An `--out PATH` is created
//! while the flags are parsed ([`Flags::out_file`]), so a path that
//! cannot be written is a usage error too.
//!
//! The tools and the figure binaries print through [`out!`](crate::out)
//! and [`outln!`](crate::outln) rather than `print!`/`println!`, so a
//! reader that closes their stdout early (`emc-lint | head`) ends the
//! output, not the run: see [`write_stdout`].

use std::ffi::OsString;
use std::fmt::{self, Display};
use std::fs::File;
use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

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

    /// The argument after `flag`, created (or truncated) as the file a
    /// binary writes its report to when the work is done.
    pub fn out_file(&mut self, flag: &str) -> Result<OutFile, UsageError> {
        let path: String = self.value(flag)?;
        let file = File::create(&path).map_err(|e| self.error(format!("{flag} {path:?}: {e}")))?;
        Ok(OutFile { path, file })
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

/// A report file created by [`Flags::out_file`].
#[derive(Debug)]
pub struct OutFile {
    /// The path the file was created at.
    pub path: String,
    file: File,
}

impl OutFile {
    /// Writes `text` to the file. A write error prints
    /// `error: cannot write PATH: …` and exits with status 1.
    pub fn write(&self, text: &str) {
        if let Err(e) = (&self.file).write_all(text.as_bytes()) {
            eprintln!("error: cannot write {}: {e}", self.path);
            std::process::exit(1);
        }
    }
}

/// Set once stdout's reader has gone away.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout. Once a write fails because the reader has
/// closed the pipe, all further output is dropped and the run goes on,
/// so it still exits with its own status (a failed check still exits
/// 1). Any other write error prints `error: cannot write stdout: …` and
/// exits with status 1.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match std::io::stdout().lock().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => STDOUT_CLOSED.store(true, Ordering::Relaxed),
        Err(e) => {
            eprintln!("error: cannot write stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
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
