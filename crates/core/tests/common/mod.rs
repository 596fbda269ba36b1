//! The five-object universe (one stack, set, counter, table and page) and
//! the per-object operation generator shared by the differential and
//! random-workload suites.

use proptest::prelude::*;
use sbcc_adt::{
    AdtObject, AdtOp, Counter, CounterOp, OpCall, Page, PageOp, SemanticObject, Set, SetOp, Stack,
    StackOp, TableObject, TableOp, Value,
};

/// Size of the object universe; scripts name objects by index below it.
pub const N_OBJECTS: usize = 5;

/// Register the universe through `register`, in index order. Same names,
/// same order ⇒ same dense global ids in every system under comparison.
pub fn register_objects<T>(
    mut register: impl FnMut(&'static str, Box<dyn SemanticObject>) -> T,
) -> Vec<T> {
    vec![
        register("stack", Box::new(AdtObject::new(Stack::new()))),
        register("set", Box::new(AdtObject::new(Set::new()))),
        register("counter", Box::new(AdtObject::new(Counter::new()))),
        register("table", Box::new(AdtObject::new(TableObject::new()))),
        register("page", Box::new(AdtObject::new(Page::new()))),
    ]
}

/// A random call on object `object` of the universe. `whole_table_ops`
/// adds `Size` and `Modify` to the table's keyed insert/delete/lookup:
/// the kernel-level suites draw them, the session-level ones do not, and
/// each keeps the generator it was written against.
pub fn arb_call_for(object: usize, whole_table_ops: bool) -> BoxedStrategy<OpCall> {
    match object {
        0 => prop_oneof![
            (0i64..5).prop_map(|v| StackOp::Push(Value::Int(v)).to_call()),
            Just(StackOp::Pop.to_call()),
            Just(StackOp::Top.to_call()),
        ]
        .boxed(),
        1 => prop_oneof![
            (0i64..4).prop_map(|v| SetOp::Insert(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Delete(Value::Int(v)).to_call()),
            (0i64..4).prop_map(|v| SetOp::Member(Value::Int(v)).to_call()),
        ]
        .boxed(),
        2 => prop_oneof![
            (1i64..5).prop_map(|v| CounterOp::Increment(v).to_call()),
            (1i64..5).prop_map(|v| CounterOp::Decrement(v).to_call()),
            Just(CounterOp::Read.to_call()),
        ]
        .boxed(),
        3 if whole_table_ops => prop_oneof![
            (0i64..4, 0i64..50)
                .prop_map(|(k, v)| TableOp::Insert(Value::Int(k), Value::Int(v)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Delete(Value::Int(k)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Lookup(Value::Int(k)).to_call()),
            Just(TableOp::Size.to_call()),
            (0i64..4, 0i64..50)
                .prop_map(|(k, v)| TableOp::Modify(Value::Int(k), Value::Int(v)).to_call()),
        ]
        .boxed(),
        3 => prop_oneof![
            (0i64..4, 0i64..50)
                .prop_map(|(k, v)| TableOp::Insert(Value::Int(k), Value::Int(v)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Delete(Value::Int(k)).to_call()),
            (0i64..4).prop_map(|k| TableOp::Lookup(Value::Int(k)).to_call()),
        ]
        .boxed(),
        _ => prop_oneof![
            Just(PageOp::Read.to_call()),
            (0i64..10).prop_map(|v| PageOp::Write(Value::Int(v)).to_call()),
        ]
        .boxed(),
    }
}
