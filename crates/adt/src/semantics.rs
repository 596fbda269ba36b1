//! Definition-level semantics checkers.
//!
//! These functions evaluate the paper's formal definitions directly over a
//! set of probe states:
//!
//! * **Definition 1** (`o2` recoverable relative to `o1`): for all states
//!   `s`, `return(o2, state(o1, s)) = return(o2, s)`.
//! * **Definition 2** (commutativity): for all states `s`, the final state
//!   is independent of execution order and each operation returns the same
//!   value in either order.
//! * **Definition 3 / Lemma 2** (recoverability relative to a *sequence* of
//!   uncommitted operations): the return value of the later operation is the
//!   same for every subsequence of the uncommitted prefix. Lemma 2 proves
//!   that pairwise recoverability implies sequence recoverability; the
//!   property tests in this crate exercise that implication on concrete data
//!   types.
//!
//! Because the definitions quantify over *all* states, checkers take a slice
//! of probe states: a `true` answer means "holds for every probe state".
//! The unit/property tests use these checkers in the sound direction — every
//! `Yes` entry in a static table must hold on every sampled state — while
//! `No` entries are allowed to be conservative.

use crate::op::OpResult;
use crate::spec::AdtSpec;

/// Evaluate Definition 1: is `later` recoverable relative to `earlier`,
/// judged over the given probe states?
///
/// Returns `true` iff for every probe state `s`,
/// `return(later, state(earlier, s)) == return(later, s)`.
pub fn check_recoverable<A: AdtSpec>(states: &[A], later: &A::Op, earlier: &A::Op) -> bool {
    states.iter().all(|s| {
        // return(later, state(earlier, s))
        let mut with_earlier = s.clone();
        let _ = with_earlier.apply(earlier);
        let r_with = with_earlier.apply(later);
        // return(later, s)
        let mut without = s.clone();
        let r_without = without.apply(later);
        r_with == r_without
    })
}

/// Evaluate Definition 2: do `o1` and `o2` commute, judged over the given
/// probe states?
///
/// Requires (for every probe state): identical final state regardless of
/// order, and each operation returns the same value in either order.
pub fn check_commutative<A: AdtSpec>(states: &[A], o1: &A::Op, o2: &A::Op) -> bool {
    states.iter().all(|s| {
        let mut s12 = s.clone();
        let r1_first = s12.apply(o1);
        let r2_second = s12.apply(o2);

        let mut s21 = s.clone();
        let r2_first = s21.apply(o2);
        let r1_second = s21.apply(o1);

        s12 == s21 && r1_first == r1_second && r2_first == r2_second
    })
}

/// Evaluate Definition 3 directly: is `later` recoverable relative to the
/// *sequence* of uncommitted operations `uncommitted` (listed in execution
/// order), judged over the given probe states?
///
/// The definition requires the return value of `later` to be identical for
/// **every subsequence** of the uncommitted operations (any subset may abort
/// and vanish from the log). This is exponential in the sequence length and
/// is therefore only used in tests with short sequences.
pub fn check_recoverable_to_sequence<A: AdtSpec>(
    states: &[A],
    later: &A::Op,
    uncommitted: &[A::Op],
) -> bool {
    let n = uncommitted.len();
    assert!(
        n <= 16,
        "subsequence enumeration is exponential; keep sequences short"
    );
    states.iter().all(|s| {
        let reference = return_after_subsequence(s, later, uncommitted, (1u32 << n) - 1);
        (0..(1u32 << n))
            .all(|mask| return_after_subsequence(s, later, uncommitted, mask) == reference)
    })
}

fn return_after_subsequence<A: AdtSpec>(
    base: &A,
    later: &A::Op,
    uncommitted: &[A::Op],
    mask: u32,
) -> OpResult {
    let mut state = base.clone();
    for (i, op) in uncommitted.iter().enumerate() {
        if mask & (1 << i) != 0 {
            let _ = state.apply(op);
        }
    }
    state.apply(later)
}

/// A violation found by [`verify_tables`]: the static table claimed a
/// compatibility that the definitions refute on at least one probe state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SemanticsViolation {
    /// The data type name.
    pub type_name: &'static str,
    /// Debug rendering of the requested operation.
    pub requested: String,
    /// Debug rendering of the executed operation.
    pub executed: String,
    /// What the table claimed.
    pub claimed: crate::Compatibility,
}

impl std::fmt::Display for SemanticsViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: table claims {} for requested {} against executed {}, but the definition fails",
            self.type_name, self.claimed, self.requested, self.executed
        )
    }
}

/// Verify that a data type's static tables are *sound* with respect to the
/// formal definitions over the given probe states and operations: every pair
/// classified `Commutative` must satisfy Definition 2 and every pair
/// classified `Recoverable` must satisfy Definition 1.
///
/// Returns the list of violations (empty when the tables are sound).
pub fn verify_tables<A: AdtSpec>(states: &[A], ops: &[A::Op]) -> Vec<SemanticsViolation> {
    use crate::Compatibility;
    let mut violations = Vec::new();
    for requested in ops {
        for executed in ops {
            match A::classify(requested, executed) {
                Compatibility::Commutative => {
                    if !check_commutative(states, requested, executed) {
                        violations.push(SemanticsViolation {
                            type_name: A::TYPE_NAME,
                            requested: format!("{requested:?}"),
                            executed: format!("{executed:?}"),
                            claimed: Compatibility::Commutative,
                        });
                    }
                }
                Compatibility::Recoverable => {
                    if !check_recoverable(states, requested, executed) {
                        violations.push(SemanticsViolation {
                            type_name: A::TYPE_NAME,
                            requested: format!("{requested:?}"),
                            executed: format!("{executed:?}"),
                            claimed: Compatibility::Recoverable,
                        });
                    }
                }
                Compatibility::NonRecoverable => {
                    // Conservative entries are always sound.
                }
            }
        }
    }
    violations
}

/// Check Lemma 1 on concrete operations: commutativity implies
/// recoverability in both directions (over the probe states).
pub fn check_lemma1<A: AdtSpec>(states: &[A], o1: &A::Op, o2: &A::Op) -> bool {
    if !check_commutative(states, o1, o2) {
        return true; // vacuously true
    }
    check_recoverable(states, o1, o2) && check_recoverable(states, o2, o1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::{Page, PageOp};
    use crate::stack::{Stack, StackOp};
    use crate::value::Value;

    fn stack_states() -> Vec<Stack> {
        vec![
            Stack::new(),
            Stack::from_values(vec![Value::Int(1)]),
            Stack::from_values(vec![Value::Int(1), Value::Int(2)]),
            Stack::from_values(vec![Value::Int(2), Value::Int(2), Value::Int(3)]),
        ]
    }

    #[test]
    fn push_is_recoverable_relative_to_push() {
        let states = stack_states();
        let p1 = StackOp::Push(Value::Int(10));
        let p2 = StackOp::Push(Value::Int(20));
        assert!(check_recoverable(&states, &p2, &p1));
        assert!(check_recoverable(&states, &p1, &p2));
        assert!(
            !check_commutative(&states, &p1, &p2),
            "pushes with different parameters do not commute"
        );
    }

    #[test]
    fn pop_is_not_recoverable_relative_to_push() {
        let states = stack_states();
        let push = StackOp::Push(Value::Int(10));
        let pop = StackOp::Pop;
        assert!(!check_recoverable(&states, &pop, &push));
        // but push *is* recoverable relative to pop
        assert!(check_recoverable(&states, &push, &pop));
    }

    #[test]
    fn reads_commute_on_pages() {
        let states = vec![Page::new(), Page::with_value(Value::Int(5))];
        assert!(check_commutative(&states, &PageOp::Read, &PageOp::Read));
        assert!(!check_commutative(
            &states,
            &PageOp::Read,
            &PageOp::Write(Value::Int(9))
        ));
        assert!(check_recoverable(
            &states,
            &PageOp::Write(Value::Int(9)),
            &PageOp::Read
        ));
        assert!(!check_recoverable(
            &states,
            &PageOp::Read,
            &PageOp::Write(Value::Int(9))
        ));
    }

    #[test]
    fn sequence_recoverability_for_pushes() {
        // Definition 3: a push is recoverable relative to any sequence of
        // uncommitted pushes/pops (its return value is always "ok").
        let states = stack_states();
        let later = StackOp::Push(Value::Int(99));
        let uncommitted = vec![
            StackOp::Push(Value::Int(1)),
            StackOp::Pop,
            StackOp::Push(Value::Int(2)),
        ];
        assert!(check_recoverable_to_sequence(&states, &later, &uncommitted));

        // ... but a pop is not recoverable relative to a sequence containing
        // a push (its return value depends on whether the push survives).
        let later = StackOp::Pop;
        assert!(!check_recoverable_to_sequence(
            &states,
            &later,
            &[StackOp::Push(Value::Int(1))]
        ));
    }

    #[test]
    fn lemma1_holds_for_stack_and_page_ops() {
        let states = stack_states();
        let ops = [
            StackOp::Push(Value::Int(1)),
            StackOp::Push(Value::Int(2)),
            StackOp::Pop,
            StackOp::Top,
        ];
        for a in &ops {
            for b in &ops {
                assert!(
                    check_lemma1(&states, a, b),
                    "lemma 1 violated for {a:?},{b:?}"
                );
            }
        }
    }

    #[test]
    fn verify_tables_passes_for_stack() {
        let states = stack_states();
        let ops = vec![
            StackOp::Push(Value::Int(1)),
            StackOp::Push(Value::Int(2)),
            StackOp::Pop,
            StackOp::Top,
        ];
        let violations = verify_tables::<Stack>(&states, &ops);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn violation_display_is_informative() {
        let v = SemanticsViolation {
            type_name: "stack",
            requested: "Pop".into(),
            executed: "Push(1)".into(),
            claimed: crate::Compatibility::Recoverable,
        };
        let s = v.to_string();
        assert!(s.contains("stack"));
        assert!(s.contains("Pop"));
        assert!(s.contains("recoverable"));
    }
}
