//! Operation accounting: every campaign run and every correctness check is
//! one attempted operation; a failure is counted, kept by name, and fails
//! the command.

#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// `name: reason` for each failed operation, in order.
    pub failures: Vec<String>,
}

impl Checks {
    /// Run one operation. `Err` counts as a failure and is recorded.
    pub fn check(&mut self, name: &str, op: impl FnOnce() -> Result<(), String>) {
        self.attempted += 1;
        if let Err(reason) = op() {
            self.failed += 1;
            self.failures.push(format!("{name}: {reason}"));
        }
    }

    /// Like [`Checks::check`] for an operation that yields a value the
    /// caller goes on to use; `None` after a failure.
    pub fn attempt<T>(&mut self, name: &str, op: impl FnOnce() -> Result<T, String>) -> Option<T> {
        let mut out = None;
        self.check(name, || op().map(|v| out = Some(v)));
        out
    }

    pub fn all_passed(&self) -> bool {
        self.failed == 0
    }
}

/// `Ok` when `cond` holds, else the lazily built message.
pub fn ensure(cond: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(msg())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_and_keeps_failure_reasons() {
        let mut c = Checks::default();
        c.check("ok", || Ok(()));
        c.check("bad", || Err("because".into()));
        assert_eq!(c.attempt("value", || Ok(3)), Some(3));
        assert_eq!(c.attempt::<u8>("lost", || Err("gone".into())), None);
        assert_eq!((c.attempted, c.failed), (4, 2));
        assert_eq!(c.failures, ["bad: because", "lost: gone"]);
        assert!(!c.all_passed());
        assert!(ensure(true, || unreachable!()).is_ok());
        assert_eq!(ensure(false, || "no".into()), Err("no".to_string()));
    }
}
