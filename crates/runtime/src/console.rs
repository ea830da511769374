//! Console I/O substrate.
//!
//! The paper's canonical I/O operations are `putChar` and `getChar`
//! (rules (PutChar), (GetChar), (Stuck GetChar)). To keep the runtime
//! deterministic and testable they go to an in-memory [`BufferConsole`]:
//! input is a buffer fed between runs, output is an accumulating
//! string. `getChar` on an exhausted input buffer leaves the thread
//! stuck — exactly the (Stuck GetChar) rule — where it remains
//! interruptible by asynchronous exceptions.

use std::collections::VecDeque;

/// An in-memory console: deterministic input, accumulated output.
///
/// # Examples
///
/// The runtime holds one; its public surface is
/// [`Runtime::feed_input`](crate::Runtime::feed_input) and
/// [`Runtime::output`](crate::Runtime::output):
///
/// ```
/// use conch_runtime::prelude::*;
///
/// let mut rt = Runtime::new();
/// rt.feed_input("hi");
/// rt.run(Io::get_char().and_then(Io::put_char).then(Io::put_char('!')))
///     .unwrap();
/// assert_eq!(rt.output(), "h!");
/// ```
#[derive(Debug, Default)]
pub(crate) struct BufferConsole {
    input: VecDeque<char>,
    output: String,
}

impl BufferConsole {
    /// A console with no input.
    pub(crate) fn new() -> Self {
        BufferConsole::default()
    }

    /// Appends more input (e.g. between two `Runtime::run` calls).
    pub(crate) fn feed(&mut self, input: impl Into<String>) {
        self.input.extend(input.into().chars());
    }

    /// Reads one character; `None` means "no input available right
    /// now" (the thread blocks, per rule (Stuck GetChar)).
    pub(crate) fn try_read(&mut self) -> Option<char> {
        self.input.pop_front()
    }

    /// Writes one character.
    pub(crate) fn write(&mut self, c: char) {
        self.output.push(c);
    }

    /// Everything written so far.
    pub(crate) fn output(&self) -> &str {
        &self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_in_order() {
        let mut con = BufferConsole::new();
        con.feed("ab");
        assert_eq!(con.try_read(), Some('a'));
        assert_eq!(con.try_read(), Some('b'));
        assert_eq!(con.try_read(), None);
    }

    #[test]
    fn writes_accumulate() {
        let mut con = BufferConsole::new();
        con.write('x');
        con.write('y');
        assert_eq!(con.output(), "xy");
    }

    #[test]
    fn feed_appends() {
        let mut con = BufferConsole::new();
        con.feed("a");
        con.feed("b");
        assert_eq!(con.try_read(), Some('a'));
        assert_eq!(con.try_read(), Some('b'));
        assert_eq!(con.try_read(), None);
    }
}
