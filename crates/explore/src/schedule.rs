//! Failure certificates: serialized schedules.
//!
//! A [`Schedule`] is the complete record of the nondeterministic choices
//! of one execution: which thread was picked at every *branch point*
//! (a step boundary where more than one thread could run) and whether
//! each pending asynchronous exception was delivered at each delivery
//! opportunity. Everything else a run does is deterministic, so a
//! schedule replays an execution exactly — in a different `Runtime`, a
//! different process, or a bug report.
//!
//! The text form is compact and line-safe: choices separated by `.`,
//! thread choices as `t<N>`, delivery choices as `d+` (deliver now)
//! or `d-` (defer), and oracle-arm choices
//! ([`Io::choose`](conch_runtime::io::Io::choose), the fault plane's
//! branch points) as `f<N>`, e.g. `t1.t0.d-.f2.t1.d+`.

use std::fmt;
use std::str::FromStr;

/// One nondeterministic choice of an execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Choice {
    /// At a branch point, run the thread with this id next.
    Thread(u64),
    /// At a delivery opportunity: deliver the pending exception now
    /// (`true`) or defer it past the next step (`false`).
    Deliver(bool),
    /// At an [`Io::choose`](conch_runtime::io::Io::choose) oracle: take
    /// this arm. Arm 0 is the "nothing unusual happens" convention of
    /// the fault plane.
    Arm(u8),
}

impl fmt::Display for Choice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Choice::Thread(t) => write!(f, "t{t}"),
            Choice::Deliver(true) => f.write_str("d+"),
            Choice::Deliver(false) => f.write_str("d-"),
            Choice::Arm(a) => write!(f, "f{a}"),
        }
    }
}

/// A replayable schedule: the serialized form of an execution's choices.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Schedule {
    /// The choices, in the order their branch points occur.
    pub choices: Vec<Choice>,
}

impl Schedule {
    /// An empty schedule (replays as "always the default choice").
    pub(crate) fn new() -> Self {
        Schedule::default()
    }

    /// The number of recorded choices.
    pub fn len(&self) -> usize {
        self.choices.len()
    }

    /// Whether no choices are recorded.
    pub fn is_empty(&self) -> bool {
        self.choices.is_empty()
    }
}

impl From<Vec<Choice>> for Schedule {
    fn from(choices: Vec<Choice>) -> Self {
        Schedule { choices }
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.choices.iter().enumerate() {
            if i > 0 {
                f.write_str(".")?;
            }
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

/// Error parsing a serialized [`Schedule`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseScheduleError {
    /// The token that failed to parse.
    pub(crate) token: String,
}

impl fmt::Display for ParseScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid schedule token {:?}", self.token)
    }
}

impl std::error::Error for ParseScheduleError {}

impl FromStr for Schedule {
    type Err = ParseScheduleError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Ok(Schedule::new());
        }
        let mut choices = Vec::new();
        for token in s.split('.') {
            let choice = match token {
                "d+" => Choice::Deliver(true),
                "d-" => Choice::Deliver(false),
                _ => {
                    let thread = token.strip_prefix('t').and_then(|n| n.parse::<u64>().ok());
                    let arm = token.strip_prefix('f').and_then(|n| n.parse::<u8>().ok());
                    match (thread, arm) {
                        (Some(t), _) => Choice::Thread(t),
                        (None, Some(a)) => Choice::Arm(a),
                        (None, None) => {
                            return Err(ParseScheduleError {
                                token: token.to_owned(),
                            })
                        }
                    }
                }
            };
            choices.push(choice);
        }
        Ok(Schedule { choices })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_through_text() {
        let s = Schedule::from(vec![
            Choice::Thread(1),
            Choice::Deliver(false),
            Choice::Arm(2),
            Choice::Thread(0),
            Choice::Deliver(true),
        ]);
        let text = s.to_string();
        assert_eq!(text, "t1.d-.f2.t0.d+");
        assert_eq!(text.parse::<Schedule>().unwrap(), s);
    }

    #[test]
    fn empty_schedule_round_trips() {
        assert_eq!("".parse::<Schedule>().unwrap(), Schedule::new());
        assert_eq!(Schedule::new().to_string(), "");
    }

    #[test]
    fn bad_tokens_are_rejected() {
        assert!("t1.x9".parse::<Schedule>().is_err());
        assert!("d?".parse::<Schedule>().is_err());
    }
}
