//! Ready-made properties for [`Explorer::check`](crate::Explorer::check).
//!
//! A property is any `FnOnce(&RunOutcome<T>) -> Result<(), String>`;
//! these helpers cover the recurring ones:
//!
//! * [`terminates`] — "terminates without deadlock": the run must not
//!   end in [`RunError::Deadlock`].
//! * [`returns`] — the main thread computes exactly the expected value.
//! * [`releases_balanced`] — "bracket releases on every path": if the
//!   program prints a marker on acquire and another on release, every
//!   explored schedule must balance them.

use std::fmt::Debug;

use conch_runtime::error::RunError;

use crate::explorer::RunOutcome;

/// The run must not deadlock. Uncaught exceptions and step-budget
/// truncation are *not* failures for this property.
pub fn terminates<T>(out: &RunOutcome<T>) -> Result<(), String> {
    match &out.result {
        Err(e @ RunError::Deadlock { .. }) => Err(e.to_string()),
        _ => Ok(()),
    }
}

/// The main thread must return exactly `expected`.
pub fn returns<T>(expected: T) -> impl FnOnce(&RunOutcome<T>) -> Result<(), String>
where
    T: PartialEq + Debug + 'static,
{
    move |out| match &out.result {
        Ok(v) if *v == expected => Ok(()),
        other => Err(format!("expected Ok({expected:?}), got {other:?}")),
    }
}

/// Every `acquire` marker printed must be matched by a `release` marker
/// — the observable form of "bracket releases on every path".
pub fn releases_balanced<T>(
    acquire: char,
    release: char,
) -> impl FnOnce(&RunOutcome<T>) -> Result<(), String> {
    move |out| {
        let a = out.output.chars().filter(|&c| c == acquire).count();
        let r = out.output.chars().filter(|&c| c == release).count();
        if a == r {
            Ok(())
        } else {
            Err(format!(
                "unbalanced bracket: {a} acquire ({acquire:?}) vs {r} release ({release:?}) in output {:?}",
                out.output
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explorer::{Explorer, TestCase};
    use conch_runtime::io::Io;

    #[test]
    fn terminates_flags_deadlock() {
        let result = Explorer::new().check(|| {
            TestCase::new(
                Io::new_empty_mvar::<i64>().and_then(|m| m.take()),
                terminates,
            )
        });
        let failure = result.expect_fail();
        assert!(failure.message.contains("deadlock"), "{}", failure.message);
    }

    #[test]
    fn returns_accepts_the_right_value() {
        let result =
            Explorer::new().check(|| TestCase::new(Io::pure(41i64).map(|x| x + 1), returns(42)));
        result.expect_pass();
    }

    #[test]
    fn releases_balanced_spots_a_leak() {
        let result = Explorer::new().check(|| {
            TestCase::new(
                Io::put_char('a')
                    .then(Io::put_char('a'))
                    .then(Io::put_char('r')),
                releases_balanced('a', 'r'),
            )
        });
        let failure = result.expect_fail();
        assert!(
            failure.message.contains("unbalanced"),
            "{}",
            failure.message
        );
    }
}
