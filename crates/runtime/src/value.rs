//! Dynamic runtime values.
//!
//! The interpreter is untyped internally: every value that flows through a
//! thread, an [`MVar`](crate::mvar::MVar) or a continuation is a [`Value`].
//! The typed [`Io<T>`](crate::io::Io) surface converts between `T` and
//! [`Value`] at the boundaries using [`IntoValue`] and [`FromValue`], so user
//! code never sees this representation unless it wants to.
//!
//! This mirrors the paper's Figure 1, where constants, characters, integers,
//! exceptions, `MVar` names and `ThreadId`s are all values of the object
//! language. Figure 1's values and the result shapes of the §7 combinators
//! are *structural* variants; every other Rust type — a record, a handle,
//! the state of a cell — rides as itself in [`Value::Host`], the way the
//! paper's `MVar a` holds any `a`: opt it in with [`host_value!`](crate::host_value).

use std::any::Any;
use std::fmt;

use crate::exception::Exception;
use crate::ids::{MVarId, ThreadId};

/// A dynamically-typed value of the embedded language.
///
/// `Value` is the universal currency of the interpreter: thread results,
/// `MVar` contents and continuation arguments are all `Value`s.
///
/// # Examples
///
/// ```
/// use conch_runtime::value::{IntoValue, Value};
///
/// let v = 42_i64.into_value();
/// assert_eq!(v.as_int(), Some(42));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub enum Value {
    /// The trivial value `()`.
    #[default]
    Unit,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A character (the argument/result of `putChar`/`getChar`).
    Char(char),
    /// A string.
    Str(String),
    /// A pair `(a, b)` — the result shape of the `both` combinator.
    Pair(Box<Value>, Box<Value>),
    /// A homogeneous list.
    List(Vec<Value>),
    /// `Left a` of a sum — the result shape of the `either` combinator.
    Left(Box<Value>),
    /// `Right b` of a sum.
    Right(Box<Value>),
    /// `Nothing` of an option — the result shape of `timeout` on expiry.
    Nothing,
    /// `Just a` of an option.
    Just(Box<Value>),
    /// A thread identifier, as returned by `forkIO` and `myThreadId`.
    ThreadId(ThreadId),
    /// An `MVar` reference, as returned by `newEmptyMVar`.
    MVar(MVarId),
    /// A first-class exception value.
    Exception(Exception),
    /// A Rust value carried as itself (see [`HostValue`]). Kept the last
    /// variant: the interpreter's hot matches are laid out around the
    /// discriminants above.
    Host(Box<dyn HostValue>),
}

// A `Value` crosses OS threads in the parallel plane's messages and shard
// results, which is why `HostValue` demands `Send`.
const _: fn() = || {
    fn sendable<T: Send>() {}
    sendable::<Value>();
};

/// What a Rust value needs to ride in [`Value::Host`]: a type to downcast
/// to, `Debug`, `Send`, and — through the blanket impl, which is the only
/// impl — the `Clone` and `PartialEq` that `Value` derives. GHC's spelling
/// is `SomeException`: an existential plus a `Typeable` cast.
pub trait HostValue: Any + fmt::Debug + Send {
    #[doc(hidden)]
    fn clone_host(&self) -> Box<dyn HostValue>;
    #[doc(hidden)]
    fn eq_host(&self, other: &dyn HostValue) -> bool;
    #[doc(hidden)]
    fn type_name(&self) -> &'static str;
}

impl<T: Any + Clone + PartialEq + fmt::Debug + Send> HostValue for T {
    fn clone_host(&self) -> Box<dyn HostValue> {
        Box::new(self.clone())
    }

    fn eq_host(&self, other: &dyn HostValue) -> bool {
        (other as &dyn Any).downcast_ref::<T>() == Some(self)
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<T>()
    }
}

// `(**self)`: the box itself satisfies the blanket impl, so a plain
// `self.clone_host()` would clone the box by calling this very function.
impl Clone for Box<dyn HostValue> {
    fn clone(&self) -> Self {
        (**self).clone_host()
    }
}

impl PartialEq for dyn HostValue {
    fn eq(&self, other: &Self) -> bool {
        self.eq_host(other)
    }
}

/// Opts types in to riding in a [`Value`] as themselves: `into_value`
/// boxes, `from_value` downcasts. A generic type names its parameters
/// first, one type per call — `host_value!(<M> Mailbox<M>)` — and they
/// are bounded `'static` only, which is all a handle that holds them as
/// phantoms needs.
///
/// # Examples
///
/// ```
/// use conch_runtime::prelude::*;
///
/// #[derive(Debug, Clone, PartialEq)]
/// struct Account { owner: String, balance: i64 }
/// conch_runtime::host_value!(Account);
///
/// let opened = Account { owner: "ada".into(), balance: 3 };
/// let prog = Io::new_mvar(opened.clone()).and_then(|cell| cell.take());
/// assert_eq!(Runtime::new().run(prog).unwrap(), opened);
/// ```
#[macro_export]
macro_rules! host_value {
    (<$($param:ident),*> $t:ty) => {
        impl<$($param: 'static),*> $crate::value::IntoValue for $t {
            fn into_value(self) -> $crate::value::Value {
                $crate::value::Value::Host(Box::new(self))
            }
        }
        impl<$($param: 'static),*> $crate::value::FromValue for $t {
            fn from_value(v: $crate::value::Value) -> Option<Self> {
                v.downcast()
            }

            fn from_value_or_panic(v: $crate::value::Value) -> Self {
                v.downcast_or_panic()
            }
        }
    };
    ($($t:ty),+ $(,)?) => {
        $($crate::host_value!(<> $t);)+
    };
}

impl Value {
    /// Returns the integer payload, or `None` for any other shape.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }

    /// Returns the boolean payload, or `None` for any other shape.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the character payload, or `None` for any other shape.
    pub fn as_char(&self) -> Option<char> {
        match self {
            Value::Char(c) => Some(*c),
            _ => None,
        }
    }

    /// Returns the string payload, or `None` for any other shape.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the thread-id payload, or `None` for any other shape.
    pub fn as_thread_id(&self) -> Option<ThreadId> {
        match self {
            Value::ThreadId(t) => Some(*t),
            _ => None,
        }
    }

    /// Returns the `MVar`-id payload, or `None` for any other shape.
    pub fn as_mvar_id(&self) -> Option<MVarId> {
        match self {
            Value::MVar(m) => Some(*m),
            _ => None,
        }
    }

    /// Returns `true` if the value is the unit value.
    pub fn is_unit(&self) -> bool {
        matches!(self, Value::Unit)
    }

    /// Moves a host value of type `T` out, or `None` for any other shape
    /// or host type.
    pub fn downcast<T: HostValue>(self) -> Option<T> {
        match self {
            Value::Host(h) => (h as Box<dyn Any>).downcast().ok().map(|t| *t),
            _ => None,
        }
    }

    /// [`FromValue::from_value_or_panic`] for a host type: a
    /// [`downcast`](Self::downcast) that keeps the value until it is
    /// known to be a `T`, so only a mismatch reads its type name.
    #[doc(hidden)]
    pub fn downcast_or_panic<T: HostValue>(self) -> T {
        match self {
            Value::Host(h) if (&*h as &dyn Any).is::<T>() => {
                *(h as Box<dyn Any>).downcast().expect("checked to be a T")
            }
            v => type_confusion(std::any::type_name::<T>(), v.type_label()),
        }
    }

    /// Drops the value, skipping the out-of-line drop glue for the
    /// shapes that own nothing — what most steps produce and consume.
    #[inline]
    pub(crate) fn discard(self) {
        match self {
            Value::Unit
            | Value::Bool(_)
            | Value::Int(_)
            | Value::Char(_)
            | Value::Nothing
            | Value::ThreadId(_)
            | Value::MVar(_) => std::mem::forget(self),
            owning => drop(owning),
        }
    }

    /// A host value of type `T`, borrowed for mutation in place — a cell
    /// whose state only ever grows need not re-box it per transaction.
    pub fn host_mut<T: HostValue>(&mut self) -> Option<&mut T> {
        match self {
            Value::Host(h) => (&mut **h as &mut dyn Any).downcast_mut(),
            _ => None,
        }
    }

    /// A short name for the value's shape, used in conversion panic messages.
    pub fn shape(&self) -> &'static str {
        match self {
            Value::Unit => "unit",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Char(_) => "char",
            Value::Str(_) => "str",
            Value::Pair(_, _) => "pair",
            Value::List(_) => "list",
            Value::Left(_) => "left",
            Value::Right(_) => "right",
            Value::Nothing => "nothing",
            Value::Just(_) => "just",
            Value::ThreadId(_) => "thread-id",
            Value::MVar(_) => "mvar",
            Value::Exception(_) => "exception",
            Value::Host(_) => "host",
        }
    }

    /// The [`shape`](Self::shape), or a host value's Rust type name.
    fn type_label(&self) -> &'static str {
        match self {
            Value::Host(h) => (**h).type_name(),
            other => other.shape(),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Unit => write!(f, "()"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(n) => write!(f, "{n}"),
            Value::Char(c) => write!(f, "{c:?}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Pair(a, b) => write!(f, "({a}, {b})"),
            Value::List(xs) => {
                write!(f, "[")?;
                for (i, x) in xs.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{x}")?;
                }
                write!(f, "]")
            }
            Value::Left(v) => write!(f, "Left {v}"),
            Value::Right(v) => write!(f, "Right {v}"),
            Value::Nothing => write!(f, "Nothing"),
            Value::Just(v) => write!(f, "Just {v}"),
            Value::ThreadId(t) => write!(f, "{t}"),
            Value::MVar(m) => write!(f, "{m}"),
            Value::Exception(e) => write!(f, "{e}"),
            Value::Host(h) => write!(f, "{h:?}"),
        }
    }
}

/// Conversion from a native Rust type into a [`Value`].
///
/// Implemented for the primitive types the embedded language knows about.
/// The typed [`Io<T>`](crate::io::Io) API uses this to inject results.
pub trait IntoValue {
    /// Converts `self` into a dynamic [`Value`].
    fn into_value(self) -> Value;
}

/// Conversion from a [`Value`] back into a native Rust type.
///
/// `from_value` returns `None` when the value has the wrong shape; the typed
/// API treats that as an internal invariant violation (it can only happen if
/// untyped values are smuggled across a typed boundary, e.g. via a raw
/// `Value` `MVar`).
pub trait FromValue: Sized {
    /// Converts a dynamic [`Value`] into `Self`, or `None` on shape mismatch.
    fn from_value(v: Value) -> Option<Self>;

    /// Converts, panicking with a descriptive message on shape mismatch.
    ///
    /// `from_value` consumes the value, so this default notes what a
    /// mismatch would name before converting. `Value`, the primitives,
    /// `MVar` handles and [`host_value!`](crate::host_value) types — the
    /// conversions a step makes — override it to name it only on a
    /// mismatch.
    ///
    /// # Panics
    ///
    /// Panics if the value does not have the shape expected by `Self`.
    fn from_value_or_panic(v: Value) -> Self {
        let got = v.type_label();
        Self::from_value(v).unwrap_or_else(|| type_confusion(std::any::type_name::<Self>(), got))
    }
}

/// The panic of a conversion handed the wrong shape.
#[cold]
#[inline(never)]
fn type_confusion(expected: &'static str, got: &'static str) -> ! {
    panic!("type confusion crossing the typed Io boundary: expected {expected}, got a {got} value")
}

/// `from_value` of a type read from a `Copy` payload: the read moves
/// nothing out, so the value is [discarded](Value::discard) after it.
#[inline]
pub(crate) fn read_copy<T>(v: Value, read: impl FnOnce(&Value) -> Option<T>) -> Option<T> {
    let t = read(&v);
    v.discard();
    t
}

/// `from_value_or_panic` of the same types: the read leaves the value
/// whole, so a mismatch can still name it.
#[inline]
pub(crate) fn read_copy_or_panic<T>(v: Value, read: impl FnOnce(&Value) -> Option<T>) -> T {
    match read(&v) {
        Some(t) => {
            v.discard();
            t
        }
        None => type_confusion(std::any::type_name::<T>(), v.type_label()),
    }
}

impl IntoValue for Value {
    fn into_value(self) -> Value {
        self
    }
}

impl FromValue for Value {
    fn from_value(v: Value) -> Option<Self> {
        Some(v)
    }

    fn from_value_or_panic(v: Value) -> Self {
        v
    }
}

impl IntoValue for () {
    fn into_value(self) -> Value {
        Value::Unit
    }
}

impl FromValue for () {
    #[inline]
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, |v| v.is_unit().then_some(()))
    }

    #[inline]
    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, |v| v.is_unit().then_some(()))
    }
}

impl IntoValue for bool {
    fn into_value(self) -> Value {
        Value::Bool(self)
    }
}

impl FromValue for bool {
    #[inline]
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, Value::as_bool)
    }

    #[inline]
    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, Value::as_bool)
    }
}

impl IntoValue for i64 {
    fn into_value(self) -> Value {
        Value::Int(self)
    }
}

impl FromValue for i64 {
    #[inline]
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, Value::as_int)
    }

    #[inline]
    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, Value::as_int)
    }
}

impl IntoValue for char {
    fn into_value(self) -> Value {
        Value::Char(self)
    }
}

impl FromValue for char {
    #[inline]
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, Value::as_char)
    }

    #[inline]
    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, Value::as_char)
    }
}

impl IntoValue for String {
    fn into_value(self) -> Value {
        Value::Str(self)
    }
}

impl IntoValue for &str {
    fn into_value(self) -> Value {
        Value::Str(self.to_owned())
    }
}

impl FromValue for String {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl IntoValue for ThreadId {
    fn into_value(self) -> Value {
        Value::ThreadId(self)
    }
}

impl FromValue for ThreadId {
    #[inline]
    fn from_value(v: Value) -> Option<Self> {
        read_copy(v, Value::as_thread_id)
    }

    #[inline]
    fn from_value_or_panic(v: Value) -> Self {
        read_copy_or_panic(v, Value::as_thread_id)
    }
}

impl IntoValue for Exception {
    fn into_value(self) -> Value {
        Value::Exception(self)
    }
}

impl FromValue for Exception {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Exception(e) => Some(e),
            _ => None,
        }
    }
}

// `Normal` and `Killed` are small integer tags; `Crashed` rides on the
// first-class exception value, so the carried exception round-trips
// exactly (the actor layer threads exit reasons through `MVar`s and
// mailbox messages).
impl IntoValue for crate::exception::ExitReason {
    fn into_value(self) -> Value {
        use crate::exception::ExitReason;
        match self {
            ExitReason::Normal => Value::Int(0),
            ExitReason::Killed => Value::Int(1),
            ExitReason::Crashed(e) => Value::Exception(*e),
        }
    }
}

impl FromValue for crate::exception::ExitReason {
    fn from_value(v: Value) -> Option<Self> {
        use crate::exception::ExitReason;
        match v {
            Value::Int(0) => Some(ExitReason::Normal),
            Value::Int(1) => Some(ExitReason::Killed),
            Value::Exception(e) => Some(ExitReason::Crashed(Box::new(e))),
            _ => None,
        }
    }
}

impl<A: IntoValue, B: IntoValue> IntoValue for (A, B) {
    fn into_value(self) -> Value {
        Value::Pair(Box::new(self.0.into_value()), Box::new(self.1.into_value()))
    }
}

impl<A: FromValue, B: FromValue> FromValue for (A, B) {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Pair(a, b) => Some((A::from_value(*a)?, B::from_value(*b)?)),
            _ => None,
        }
    }
}

/// Triples nest as `(a, (b, c))`.
impl<A: IntoValue, B: IntoValue, C: IntoValue> IntoValue for (A, B, C) {
    fn into_value(self) -> Value {
        (self.0, (self.1, self.2)).into_value()
    }
}

impl<A: FromValue, B: FromValue, C: FromValue> FromValue for (A, B, C) {
    fn from_value(v: Value) -> Option<Self> {
        let (a, (b, c)) = <(A, (B, C))>::from_value(v)?;
        Some((a, b, c))
    }
}

/// Quadruples nest as `(a, (b, (c, d)))`.
impl<A: IntoValue, B: IntoValue, C: IntoValue, D: IntoValue> IntoValue for (A, B, C, D) {
    fn into_value(self) -> Value {
        (self.0, (self.1, (self.2, self.3))).into_value()
    }
}

impl<A: FromValue, B: FromValue, C: FromValue, D: FromValue> FromValue for (A, B, C, D) {
    fn from_value(v: Value) -> Option<Self> {
        let (a, (b, (c, d))) = <(A, (B, (C, D)))>::from_value(v)?;
        Some((a, b, c, d))
    }
}

impl<T: IntoValue> IntoValue for Option<T> {
    fn into_value(self) -> Value {
        match self {
            None => Value::Nothing,
            Some(x) => Value::Just(Box::new(x.into_value())),
        }
    }
}

impl<T: FromValue> FromValue for Option<T> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Nothing => Some(None),
            Value::Just(x) => Some(Some(T::from_value(*x)?)),
            _ => None,
        }
    }
}

/// `Either e t` rendered as Rust: `Err` is `Left`, `Ok` is `Right`.
impl<T: IntoValue, E: IntoValue> IntoValue for Result<T, E> {
    fn into_value(self) -> Value {
        match self {
            Ok(t) => Value::Right(Box::new(t.into_value())),
            Err(e) => Value::Left(Box::new(e.into_value())),
        }
    }
}

impl<T: FromValue, E: FromValue> FromValue for Result<T, E> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::Right(t) => Some(Ok(T::from_value(*t)?)),
            Value::Left(e) => Some(Err(E::from_value(*e)?)),
            _ => None,
        }
    }
}

impl<T: IntoValue> IntoValue for Vec<T> {
    fn into_value(self) -> Value {
        Value::List(self.into_iter().map(IntoValue::into_value).collect())
    }
}

impl<T: FromValue> FromValue for Vec<T> {
    fn from_value(v: Value) -> Option<Self> {
        match v {
            Value::List(xs) => xs.into_iter().map(T::from_value).collect(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn int_round_trip() {
        let v = 17_i64.into_value();
        assert_eq!(i64::from_value(v), Some(17));
    }

    #[test]
    fn unit_round_trip() {
        assert_eq!(<()>::from_value(().into_value()), Some(()));
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(bool::from_value(true.into_value()), Some(true));
        assert_eq!(bool::from_value(false.into_value()), Some(false));
    }

    #[test]
    fn char_round_trip() {
        assert_eq!(char::from_value('λ'.into_value()), Some('λ'));
    }

    #[test]
    fn string_round_trip() {
        assert_eq!(
            String::from_value("hello".into_value()),
            Some("hello".to_owned())
        );
    }

    #[test]
    fn pair_round_trip() {
        let v = (1_i64, 'x').into_value();
        assert_eq!(<(i64, char)>::from_value(v), Some((1, 'x')));
    }

    #[test]
    fn nested_pair_round_trip() {
        let v = ((1_i64, 2_i64), (3_i64, 4_i64)).into_value();
        assert_eq!(
            <((i64, i64), (i64, i64))>::from_value(v),
            Some(((1, 2), (3, 4)))
        );
    }

    #[test]
    fn option_round_trip() {
        assert_eq!(
            Option::<i64>::from_value(Some(5_i64).into_value()),
            Some(Some(5))
        );
        assert_eq!(
            Option::<i64>::from_value(None::<i64>.into_value()),
            Some(None)
        );
    }

    #[test]
    fn result_round_trip() {
        let ok: Result<i64, char> = Ok(9);
        let err: Result<i64, char> = Err('e');
        assert_eq!(
            <Result<i64, char>>::from_value(ok.into_value()),
            Some(Ok(9))
        );
        assert_eq!(
            <Result<i64, char>>::from_value(err.into_value()),
            Some(Err('e'))
        );
    }

    #[test]
    fn vec_round_trip() {
        let v = vec![1_i64, 2, 3].into_value();
        assert_eq!(Vec::<i64>::from_value(v), Some(vec![1, 2, 3]));
    }

    #[test]
    fn shape_mismatch_is_none() {
        assert_eq!(i64::from_value(Value::Char('x')), None);
        assert_eq!(char::from_value(Value::Int(7)), None);
        assert_eq!(<(i64, i64)>::from_value(Value::Unit), None);
    }

    #[test]
    #[should_panic(expected = "type confusion crossing the typed Io boundary: \
                               expected i64, got a char value")]
    fn from_value_or_panic_panics_on_mismatch() {
        let _ = i64::from_value_or_panic(Value::Char('x'));
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Point {
        x: i64,
        label: String,
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Metres(i64);

    #[derive(Debug, Clone, PartialEq)]
    struct Feet(i64);

    host_value!(Point, Metres, Feet);

    fn point(x: i64) -> Point {
        Point {
            x,
            label: "p".to_owned(),
        }
    }

    proptest! {
        #[test]
        fn host_round_trip(
            x in any::<i64>(),
            label in prop::collection::vec(prop::char::range('a', 'z'), 0..8),
        ) {
            let p = Point { x, label: label.into_iter().collect() };
            prop_assert_eq!(Point::from_value(p.clone().into_value()), Some(p));
        }
    }

    #[test]
    fn host_values_clone_equal_and_compare_by_type_and_payload() {
        let v = point(1).into_value();
        assert_eq!(v.clone(), v);
        assert_ne!(v, point(2).into_value());
        assert_ne!(Metres(1).into_value(), Feet(1).into_value());
        assert_ne!(v, Value::Int(1));
    }

    #[test]
    fn host_downcast_to_the_wrong_type_is_none() {
        assert_eq!(Feet::from_value(Metres(1).into_value()), None);
        assert_eq!(Point::from_value(Value::Int(1)), None);
        assert_eq!(i64::from_value(point(1).into_value()), None);
    }

    #[test]
    fn host_mut_borrows_the_payload_in_place() {
        let mut v = point(1).into_value();
        v.host_mut::<Point>().unwrap().x = 7;
        assert_eq!(v.host_mut::<Feet>(), None);
        assert_eq!(Value::Int(1).host_mut::<Point>(), None);
        assert_eq!(Point::from_value(v), Some(point(7)));
    }

    #[test]
    fn host_mismatch_panic_names_both_types() {
        let caught = std::panic::catch_unwind(|| Feet::from_value_or_panic(Metres(1).into_value()));
        let payload = caught.expect_err("metres are not feet");
        let msg = payload.downcast_ref::<String>().expect("a formatted panic");
        assert_eq!(
            msg,
            "type confusion crossing the typed Io boundary: \
             expected conch_runtime::value::tests::Feet, \
             got a conch_runtime::value::tests::Metres value"
        );
    }

    #[test]
    fn host_shape_and_display() {
        let v = point(3).into_value();
        assert_eq!(v.shape(), "host");
        assert_eq!(v.to_string(), format!("{:?}", point(3)));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Unit.to_string(), "()");
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::Pair(Box::new(Value::Int(1)), Box::new(Value::Unit)).to_string(),
            "(1, ())"
        );
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Nothing.to_string(), "Nothing");
        assert_eq!(Value::Just(Box::new(Value::Int(1))).to_string(), "Just 1");
    }

    #[test]
    fn shapes_are_distinct() {
        let shapes = [
            Value::Unit.shape(),
            Value::Bool(true).shape(),
            Value::Int(0).shape(),
            Value::Char('a').shape(),
            Value::Str(String::new()).shape(),
            Value::Nothing.shape(),
        ];
        let mut unique = shapes.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), shapes.len());
    }
}
