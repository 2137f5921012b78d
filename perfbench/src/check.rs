//! Output checks: every checked operation either matches its reference
//! or counts as one failure.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::span::Recorder;

/// The expected output of one kind of operation: a pinned value when
/// the pin table has one for this seed and size, otherwise the first
/// output observed in this run (so every repeat must reproduce it).
#[derive(Debug, Clone)]
pub struct Expect<T> {
    pinned: Option<T>,
    first: Option<T>,
}

impl<T: Clone + Debug + PartialEq> Expect<T> {
    /// A reference, pinned or learnt from the first observation.
    pub fn new(pinned: Option<T>) -> Self {
        Self {
            pinned,
            first: None,
        }
    }

    /// Compares `got` with the reference.
    pub fn check(&mut self, got: &T) -> Result<(), String> {
        let want = match (&self.pinned, &self.first) {
            (Some(p), _) | (None, Some(p)) => p,
            (None, None) => {
                self.first = Some(got.clone());
                return Ok(());
            }
        };
        if want == got {
            Ok(())
        } else {
            let kind = if self.pinned.is_some() {
                "pinned"
            } else {
                "first-run"
            };
            Err(format!("expected {kind} {want:?}, got {got:?}"))
        }
    }
}

/// Tally of checked operations.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that panicked or produced a wrong output.
    pub failed: u64,
    /// One line per distinct failure, for the text report.
    pub failures: Vec<String>,
    /// One line per distinct observed output, for the text report.
    pub outputs: Vec<String>,
}

impl Checks {
    /// Runs one checked operation: `op` produces the output and checks
    /// it. A panic or an `Err` counts as one failure; either way the
    /// run continues. Returns the output when it passed.
    pub fn op<T>(
        &mut self,
        rec: &mut Recorder,
        what: &str,
        op: impl FnOnce(&mut Recorder) -> Result<T, String>,
    ) -> Option<T> {
        self.attempted += 1;
        self.settle(what, 1, guarded(rec, op))
    }

    /// Runs the construction that the next `ops` checked operations
    /// share. If it panics, those operations count as attempted and
    /// failed.
    pub fn prerequisite<T>(
        &mut self,
        rec: &mut Recorder,
        what: &str,
        ops: u64,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> Option<T> {
        let outcome = guarded(rec, |rec| Ok(f(rec)));
        if outcome.is_err() {
            self.attempted += ops;
        }
        self.settle(what, ops, outcome)
    }

    fn settle<T>(&mut self, what: &str, ops: u64, outcome: Result<T, String>) -> Option<T> {
        match outcome {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += ops;
                let line = format!("{what}: {e}");
                if !self.failures.contains(&line) {
                    self.failures.push(line);
                }
                None
            }
        }
    }

    /// Notes an observed output once (for the text report).
    pub fn observed(&mut self, line: String) {
        if !self.outputs.contains(&line) {
            self.outputs.push(line);
        }
    }
}

/// Runs `op`, turning a panic into an `Err` and closing the spans it
/// left open.
fn guarded<T>(
    rec: &mut Recorder,
    op: impl FnOnce(&mut Recorder) -> Result<T, String>,
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| op(rec))).unwrap_or_else(|panic| {
        rec.unwind();
        let msg = panic
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic");
        Err(format!("panicked: {msg}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_overrides_the_first_observation() {
        let mut e = Expect::new(Some(3));
        assert!(e.check(&4).is_err());
        assert!(e.check(&3).is_ok());
        let mut e = Expect::new(None);
        assert!(e.check(&4).is_ok());
        assert!(e.check(&4).is_ok());
        assert!(e.check(&5).is_err());
    }

    #[test]
    fn panics_and_mismatches_count_as_failures() {
        let mut c = Checks::default();
        let mut rec = Recorder::new();
        rec.begin_iteration(true);
        assert_eq!(c.op(&mut rec, "ok", |_| Ok(1)), Some(1));
        assert_eq!(c.op::<()>(&mut rec, "bad", |_| Err("wrong".into())), None);
        let r = c.op::<()>(&mut rec, "boom", |rec| {
            rec.run("sim.run_until", |_| panic!("kaput"))
        });
        assert_eq!(r, None);
        // The span the panic left open is closed, so the run goes on.
        rec.end_iteration();
        assert_eq!(rec.spans().len(), 1);
        assert_eq!((c.attempted, c.failed), (3, 2));
        assert!(c.failures[1].contains("kaput"));
        let shared = c.prerequisite(&mut rec, "build", 2, |_| -> u8 { panic!("no rig") });
        assert_eq!(shared, None);
        assert_eq!((c.attempted, c.failed), (5, 4));
    }
}
