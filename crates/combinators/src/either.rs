//! The `Either` sum type, as used by the paper's symmetric combinators.
//!
//! `either :: IO a -> IO b -> IO (Either a b)` (§7.2) returns `Left r` if
//! the first computation finishes first and `Right r` otherwise. We mirror
//! the Haskell type rather than overloading Rust's `Result`, whose `Ok`/
//! `Err` reading would be misleading for a race.

use conch_runtime::value::{FromValue, IntoValue, Value};

/// A value of one of two alternatives.
///
/// # Examples
///
/// ```
/// use conch_combinators::Either;
///
/// let l: Either<i64, char> = Either::Left(3);
/// assert!(l.is_left());
/// assert_eq!(l.fold(|n| n + 1, |c| c as i64), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Either<A, B> {
    /// The first alternative (`a` finished first, for `race`).
    Left(A),
    /// The second alternative.
    Right(B),
}

impl<A, B> Either<A, B> {
    /// Returns `true` for `Left`.
    pub fn is_left(&self) -> bool {
        matches!(self, Either::Left(_))
    }

    /// Applies one of two functions, collapsing to a single type.
    pub fn fold<T>(self, on_left: impl FnOnce(A) -> T, on_right: impl FnOnce(B) -> T) -> T {
        match self {
            Either::Left(a) => on_left(a),
            Either::Right(b) => on_right(b),
        }
    }
}

impl<A: IntoValue, B: IntoValue> IntoValue for Either<A, B> {
    fn into_value(self) -> Value {
        match self {
            Either::Left(a) => Value::Left(Box::new(a.into_value())),
            Either::Right(b) => Value::Right(Box::new(b.into_value())),
        }
    }
}

impl<A: FromValue, B: FromValue> FromValue for Either<A, B> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Left(a) => Some(Either::Left(A::from_value(*a)?)),
            Value::Right(b) => Some(Either::Right(B::from_value(*b)?)),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicates_and_accessors() {
        let l: Either<i64, char> = Either::Left(1);
        let r: Either<i64, char> = Either::Right('x');
        assert!(l.is_left());
        assert!(!r.is_left());
    }

    #[test]
    fn fold_collapses() {
        let l: Either<i64, i64> = Either::Left(2);
        assert_eq!(l.fold(|a| a * 10, |b| b), 20);
        let r: Either<i64, i64> = Either::Right(3);
        assert_eq!(r.fold(|a| a, |b| b * 10), 30);
    }

    #[test]
    fn value_round_trip() {
        let l: Either<i64, char> = Either::Left(7);
        let v = l.into_value();
        assert_eq!(Either::<i64, char>::from_value(v), Some(Either::Left(7)));
        let r: Either<i64, char> = Either::Right('q');
        assert_eq!(
            Either::<i64, char>::from_value(r.into_value()),
            Some(Either::Right('q'))
        );
    }

    #[test]
    fn from_wrong_shape_is_none() {
        assert_eq!(Either::<i64, char>::from_value(Value::Unit), None);
    }
}
