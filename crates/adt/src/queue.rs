//! The `FifoQueue` data type: enqueue / dequeue / front.
//!
//! A second extension type, analogous to the paper's stack: `enqueue`
//! always returns `ok`, so it is recoverable relative to every other
//! operation; `dequeue` and `front` are observers and conflict with any
//! uncommitted mutator.

use crate::compat::{CompatibilityTable, TableEntry};
use crate::op::{AdtOp, OpCall, OpResult};
use crate::spec::AdtSpec;
use crate::value::Value;
use std::collections::VecDeque;
use std::sync::OnceLock;

/// A FIFO queue of [`Value`]s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FifoQueue {
    items: VecDeque<Value>,
}

impl FifoQueue {
    /// An empty queue.
    pub fn new() -> Self {
        FifoQueue {
            items: VecDeque::new(),
        }
    }

    /// Build a queue from front-to-back values.
    pub fn from_values(values: impl IntoIterator<Item = Value>) -> Self {
        FifoQueue {
            items: values.into_iter().collect(),
        }
    }
}

/// Operations on a [`FifoQueue`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueueOp {
    /// Append an element at the back; returns `ok`.
    Enqueue(Value),
    /// Remove and return the front element; `null` when empty.
    Dequeue,
    /// Return the front element without removing it; `null` when empty.
    Front,
}

/// Kind index of `enqueue`.
pub const QUEUE_ENQUEUE: usize = 0;
/// Kind index of `dequeue`.
pub const QUEUE_DEQUEUE: usize = 1;
/// Kind index of `front`.
pub const QUEUE_FRONT: usize = 2;

const QUEUE_OP_NAMES: &[&str] = &["enqueue", "dequeue", "front"];

impl AdtOp for QueueOp {
    const KINDS: usize = 3;

    fn kind(&self) -> usize {
        match self {
            QueueOp::Enqueue(_) => QUEUE_ENQUEUE,
            QueueOp::Dequeue => QUEUE_DEQUEUE,
            QueueOp::Front => QUEUE_FRONT,
        }
    }

    fn kind_name(&self) -> &'static str {
        QUEUE_OP_NAMES[self.kind()]
    }

    fn kind_names() -> &'static [&'static str] {
        QUEUE_OP_NAMES
    }

    fn to_call(&self) -> OpCall {
        match self {
            QueueOp::Enqueue(v) => OpCall::unary(QUEUE_ENQUEUE, v.clone()),
            QueueOp::Dequeue => OpCall::nullary(QUEUE_DEQUEUE),
            QueueOp::Front => OpCall::nullary(QUEUE_FRONT),
        }
    }

    fn from_call(call: &OpCall) -> Option<Self> {
        match call.kind {
            QUEUE_ENQUEUE => Some(QueueOp::Enqueue(call.params.first()?.clone())),
            QUEUE_DEQUEUE => Some(QueueOp::Dequeue),
            QUEUE_FRONT => Some(QueueOp::Front),
            _ => None,
        }
    }

    fn is_readonly(&self) -> bool {
        matches!(self, QueueOp::Front)
    }
}

impl AdtSpec for FifoQueue {
    type Op = QueueOp;
    const TYPE_NAME: &'static str = "queue";

    fn apply(&mut self, op: &Self::Op) -> OpResult {
        match op {
            QueueOp::Enqueue(v) => {
                self.items.push_back(v.clone());
                OpResult::Ok
            }
            QueueOp::Dequeue => match self.items.pop_front() {
                Some(v) => OpResult::Value(v),
                None => OpResult::Null,
            },
            QueueOp::Front => match self.items.front() {
                Some(v) => OpResult::Value(v.clone()),
                None => OpResult::Null,
            },
        }
    }

    /// Commutativity for FifoQueue.
    ///
    /// | requested \ executed | enqueue | dequeue | front |
    /// |---|---|---|---|
    /// | enqueue | Yes-SP | No | No |
    /// | dequeue | No | No | No |
    /// | front   | No | No | Yes |
    fn commutativity_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Queue commutativity",
                QUEUE_OP_NAMES,
                &[&[YesSameParam, No, No], &[No, No, No], &[No, No, Yes]],
            )
        })
    }

    /// Recoverability for FifoQueue.
    ///
    /// | requested \ executed | enqueue | dequeue | front |
    /// |---|---|---|---|
    /// | enqueue | Yes | Yes | Yes |
    /// | dequeue | No | No | Yes |
    /// | front   | No | No | Yes |
    fn recoverability_table() -> &'static CompatibilityTable {
        static TABLE: OnceLock<CompatibilityTable> = OnceLock::new();
        TABLE.get_or_init(|| {
            use TableEntry::*;
            CompatibilityTable::from_rows(
                "Queue recoverability",
                QUEUE_OP_NAMES,
                &[&[Yes, Yes, Yes], &[No, No, Yes], &[No, No, Yes]],
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::{check_recoverable, verify_tables};
    use crate::Compatibility;
    use proptest::prelude::*;

    fn probe_states() -> Vec<FifoQueue> {
        vec![
            FifoQueue::new(),
            FifoQueue::from_values([Value::Int(1)]),
            FifoQueue::from_values([Value::Int(1), Value::Int(2)]),
            FifoQueue::from_values([Value::Int(5), Value::Int(5), Value::Int(6)]),
        ]
    }

    fn probe_ops() -> Vec<QueueOp> {
        vec![
            QueueOp::Enqueue(Value::Int(1)),
            QueueOp::Enqueue(Value::Int(2)),
            QueueOp::Dequeue,
            QueueOp::Front,
        ]
    }

    #[test]
    fn queue_semantics_are_fifo() {
        let mut q = FifoQueue::new();
        assert_eq!(q.apply(&QueueOp::Dequeue), OpResult::Null);
        assert_eq!(q.apply(&QueueOp::Front), OpResult::Null);
        q.apply(&QueueOp::Enqueue(Value::Int(1)));
        q.apply(&QueueOp::Enqueue(Value::Int(2)));
        assert_eq!(q, FifoQueue::from_values([Value::Int(1), Value::Int(2)]));
        assert_eq!(q.apply(&QueueOp::Front), OpResult::Value(Value::Int(1)));
        assert_eq!(q.apply(&QueueOp::Dequeue), OpResult::Value(Value::Int(1)));
        assert_eq!(q.apply(&QueueOp::Dequeue), OpResult::Value(Value::Int(2)));
        assert_eq!(q.apply(&QueueOp::Dequeue), OpResult::Null);
    }

    #[test]
    fn enqueue_is_recoverable_relative_to_everything() {
        let e = QueueOp::Enqueue(Value::Int(9));
        assert_eq!(
            FifoQueue::classify(&e, &QueueOp::Enqueue(Value::Int(1))),
            Compatibility::Recoverable
        );
        assert_eq!(
            FifoQueue::classify(&e, &QueueOp::Dequeue),
            Compatibility::Recoverable
        );
        assert_eq!(
            FifoQueue::classify(&e, &QueueOp::Front),
            Compatibility::Recoverable
        );
        assert_eq!(
            FifoQueue::classify(&QueueOp::Dequeue, &e),
            Compatibility::NonRecoverable
        );
        assert_eq!(
            FifoQueue::classify(&QueueOp::Dequeue, &QueueOp::Front),
            Compatibility::Recoverable
        );
        assert_eq!(
            FifoQueue::classify(&QueueOp::Front, &QueueOp::Front),
            Compatibility::Commutative
        );
        assert_eq!(
            FifoQueue::classify(&e, &e),
            Compatibility::Commutative,
            "identical enqueues commute (Yes-SP)"
        );
    }

    #[test]
    fn tables_are_sound_wrt_definitions() {
        let violations = verify_tables::<FifoQueue>(&probe_states(), &probe_ops());
        assert!(violations.is_empty(), "{violations:?}");
    }

    #[test]
    fn dequeue_not_recoverable_after_enqueue() {
        // the empty-queue state is the witness
        let states = vec![FifoQueue::new()];
        assert!(!check_recoverable(
            &states,
            &QueueOp::Dequeue,
            &QueueOp::Enqueue(Value::Int(1))
        ));
    }

    #[test]
    fn op_call_round_trip() {
        for op in probe_ops() {
            assert_eq!(QueueOp::from_call(&op.to_call()), Some(op.clone()));
        }
        assert_eq!(QueueOp::from_call(&OpCall::nullary(8)), None);
        assert_eq!(QueueOp::from_call(&OpCall::nullary(QUEUE_ENQUEUE)), None);
        assert_eq!(QueueOp::Front.kind_name(), "front");
    }

    fn arb_queue() -> impl Strategy<Value = FifoQueue> {
        proptest::collection::vec((0i64..10).prop_map(Value::Int), 0..5)
            .prop_map(FifoQueue::from_values)
    }

    fn arb_op() -> impl Strategy<Value = QueueOp> {
        prop_oneof![
            (0i64..10).prop_map(|v| QueueOp::Enqueue(Value::Int(v))),
            Just(QueueOp::Dequeue),
            Just(QueueOp::Front),
        ]
    }

    proptest! {
        #[test]
        fn prop_tables_sound_on_random_states(
            states in proptest::collection::vec(arb_queue(), 1..4),
            ops in proptest::collection::vec(arb_op(), 1..6),
        ) {
            let violations = verify_tables::<FifoQueue>(&states, &ops);
            prop_assert!(violations.is_empty(), "{violations:?}");
        }

        #[test]
        fn prop_fifo_order(values in proptest::collection::vec(0i64..100, 1..8)) {
            let mut q = FifoQueue::new();
            for v in &values {
                q.apply(&QueueOp::Enqueue(Value::Int(*v)));
            }
            for v in &values {
                prop_assert_eq!(q.apply(&QueueOp::Dequeue), OpResult::Value(Value::Int(*v)));
            }
            prop_assert_eq!(q, FifoQueue::new());
        }
    }
}
