//! The correctness gate's shared checks: reading committed state from
//! outside any transaction, and the conditions every workload must meet.

use sbcc_adt::{AdtObject, AdtSpec, Counter};
use sbcc_core::{Database, ObjectHandle};
use std::sync::Mutex;

/// Read the committed state of a registered `A`.
pub fn committed<A: AdtSpec, R>(
    db: &Database,
    object: &ObjectHandle,
    read: impl FnOnce(&A) -> R,
) -> Result<R, String> {
    db.with_sharded_kernel(|k| {
        k.with_object_committed(object.id(), |o| {
            o.as_any()
                .downcast_ref::<AdtObject<A>>()
                .map(|a| read(a.inner()))
        })
    })
    .flatten()
    .ok_or_else(|| format!("{} is not a registered {}", object.name(), A::TYPE_NAME))
}

pub fn committed_counter(db: &Database, object: &ObjectHandle) -> Result<i64, String> {
    committed(db, object, Counter::value)
}

/// Kernel invariants hold and every begun transaction has terminated.
pub fn check_quiescent(db: &Database, checks: &mut Vec<String>) -> Result<(), String> {
    db.check_invariants()?;
    let s = db.stats();
    if s.transactions_begun != s.commits + s.total_aborts() {
        return Err(format!(
            "{} transactions begun but {} committed and {} aborted",
            s.transactions_begun,
            s.commits,
            s.total_aborts()
        ));
    }
    checks.push(format!(
        "check_invariants passes; all {} transactions terminated ({} commits)",
        s.transactions_begun, s.commits
    ));
    Ok(())
}

/// Compare every private counter (`value_of(thread, index)`) with the
/// increments its thread saw acknowledged.
pub fn check_counters(
    value_of: impl Fn(usize, usize) -> Result<i64, String>,
    tallies: &[Mutex<Vec<u64>>],
    checks: &mut Vec<String>,
) -> Result<(), String> {
    let mut total = 0;
    for (t, tally) in tallies.iter().enumerate() {
        for (i, want) in tally.lock().unwrap().iter().enumerate() {
            let got = value_of(t, i)?;
            if got != *want as i64 {
                return Err(format!(
                    "counter {t}/{i} holds {got}, committed increments say {want}"
                ));
            }
            total += want;
        }
    }
    checks.push(format!(
        "every counter equals its committed increments ({total} in all)"
    ));
    Ok(())
}
