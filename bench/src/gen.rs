//! Seeded call streams. Everything the program under test is asked to do is
//! generated here, before the window opens; a stream shorter than the run is
//! cycled.

use crate::rng::{SplitMix, Zipf};

/// Increments per `T8` transaction.
pub const T8_OPS: usize = 8;
/// Private counters per generator thread in the disjoint workloads.
pub const COUNTERS_PER_THREAD: usize = 64;
/// Transactions in one generated stream.
pub const STREAM_TXNS: usize = 4096;

/// `T8`: the private counter each transaction increments eight times.
pub fn t8_stream(seed: u64, lane: u64) -> Vec<u16> {
    let mut rng = SplitMix::stream(seed, lane);
    (0..STREAM_TXNS)
        .map(|_| rng.below(COUNTERS_PER_THREAD as u64) as u16)
        .collect()
}

/// Hot objects of `embedded_contended`: two of each type.
pub const HOT_PER_TYPE: usize = 2;
pub const CONTENDED_OPS: usize = 6;
/// Set and table keys are drawn from `0..KEYS`; set deletes only from the
/// lower half, so an inserted upper-half key must survive to the end.
pub const KEYS: i64 = 64;
pub const DELETABLE_KEYS: i64 = 32;

/// One operation of a contended transaction. `obj` picks one of the two
/// hot objects of the operation's type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HotOp {
    Push { obj: u8, value: i64 },
    Pop { obj: u8 },
    Top { obj: u8 },
    SetInsert { obj: u8, key: i64 },
    SetMember { obj: u8, key: i64 },
    SetDelete { obj: u8, key: i64 },
    Incr { obj: u8 },
    Read { obj: u8 },
    TableInsert { obj: u8, key: i64, value: i64 },
    TableLookup { obj: u8, key: i64 },
}

/// Per-type operation mixes of `embedded_contended`, in percent.
///
/// The issue's shape — six operations drawn independently over the eight
/// hot objects, push 25 / pop 10 — cannot be measured: with 32 (or even 2)
/// live transactions nearly every attempt closes a wait-for or
/// commit-dependency cycle, `run` retries at once, and the database
/// livelocks (see bench/README.md for the counts). So a transaction here
/// touches six *distinct* hot objects, in ascending object order, one
/// operation each, and pushes do not outnumber pops: a growing stack makes
/// every later operation dearer (`ManagedObject::execute` clones the
/// committed state), which would tie the result to the run length.
const STACK_MIX: [u32; 3] = [44, 46, 10]; // push, pop, top
const SET_MIX: [u32; 3] = [50, 33, 17]; // insert, member, delete
const COUNTER_MIX: [u32; 2] = [75, 25]; // increment, read
const TABLE_MIX: [u32; 2] = [50, 50]; // insert, lookup
pub const HOT_OBJECTS: usize = 4 * HOT_PER_TYPE;

fn pick(rng: &mut SplitMix, shares: &[u32]) -> usize {
    let mut roll = rng.below(100) as u32;
    shares
        .iter()
        .position(|share| {
            if roll < *share {
                true
            } else {
                roll -= share;
                false
            }
        })
        .expect("a mix sums to 100")
}

fn hot_txn(rng: &mut SplitMix) -> [HotOp; CONTENDED_OPS] {
    // Leave out two of the eight objects; the rest stay in ascending order.
    let mut objects: Vec<usize> = (0..HOT_OBJECTS).collect();
    while objects.len() > CONTENDED_OPS {
        objects.remove(rng.below(objects.len() as u64) as usize);
    }
    std::array::from_fn(|i| {
        let obj = (objects[i] % HOT_PER_TYPE) as u8;
        let key = rng.below(KEYS as u64) as i64;
        let value = rng.below(1 << 20) as i64;
        match objects[i] / HOT_PER_TYPE {
            0 => match pick(rng, &STACK_MIX) {
                0 => HotOp::Push { obj, value },
                1 => HotOp::Pop { obj },
                _ => HotOp::Top { obj },
            },
            1 => match pick(rng, &SET_MIX) {
                0 => HotOp::SetInsert { obj, key },
                1 => HotOp::SetMember { obj, key },
                _ => HotOp::SetDelete {
                    obj,
                    key: key % DELETABLE_KEYS,
                },
            },
            2 => match pick(rng, &COUNTER_MIX) {
                0 => HotOp::Incr { obj },
                _ => HotOp::Read { obj },
            },
            _ => match pick(rng, &TABLE_MIX) {
                0 => HotOp::TableInsert { obj, key, value },
                _ => HotOp::TableLookup { obj, key },
            },
        }
    })
}

/// The transactions of one contended session.
pub fn contended_stream(seed: u64, lane: u64) -> Vec<[HotOp; CONTENDED_OPS]> {
    let mut rng = SplitMix::stream(seed, lane);
    (0..STREAM_TXNS).map(|_| hot_txn(&mut rng)).collect()
}

/// `embedded_readmostly`: 128 counters then 128 tables, zipf 0.99 over all.
pub const RM_COUNTERS: usize = 128;
pub const RM_TABLES: usize = 128;
pub const RM_OBJECTS: usize = RM_COUNTERS + RM_TABLES;
/// Keys every table is pre-populated with; updates modify them in place,
/// so the tables (and the cost of cloning one) stay the same size.
pub const RM_TABLE_KEYS: i64 = 32;
pub const RM_READS: usize = 16;
pub const RM_WRITES: usize = 4;

/// One access of a read-mostly transaction: object index and, for tables,
/// the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Access {
    pub obj: u16,
    pub key: i64,
}

/// Zipf ranks are scattered over the object indices (rank r lands on index
/// r·prime mod 256) so the hot objects are a mix of counters and tables.
fn rm_access(rng: &mut SplitMix, zipf: &Zipf) -> Access {
    let rank = zipf.sample(rng);
    Access {
        obj: ((rank * 149) % RM_OBJECTS) as u16,
        key: rng.below(RM_TABLE_KEYS as u64) as i64,
    }
}

pub fn readmostly_stream<const N: usize>(seed: u64, lane: u64) -> Vec<[Access; N]> {
    let zipf = Zipf::new(RM_OBJECTS, 0.99);
    let mut rng = SplitMix::stream(seed, lane);
    (0..STREAM_TXNS)
        .map(|_| std::array::from_fn(|_| rm_access(&mut rng, &zipf)))
        .collect()
}

/// The byte image of everything `seed` generates, for the determinism test
/// and for anyone who wants to diff two seeds.
pub fn stream_image(seed: u64) -> Vec<u8> {
    let mut out = Vec::new();
    for lane in 0..2 {
        for idx in t8_stream(seed, lane) {
            out.extend_from_slice(&idx.to_le_bytes());
        }
    }
    for lane in 0..32 {
        out.extend_from_slice(format!("{:?}", contended_stream(seed, 100 + lane)).as_bytes());
    }
    out.extend_from_slice(format!("{:?}", readmostly_stream::<RM_READS>(seed, 200)).as_bytes());
    out.extend_from_slice(format!("{:?}", readmostly_stream::<RM_WRITES>(seed, 201)).as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let a = stream_image(11);
        assert_eq!(a, stream_image(11));
        assert_ne!(a, stream_image(12));
    }

    #[test]
    fn contended_transactions_touch_distinct_objects_in_order() {
        for mix in [
            &STACK_MIX[..],
            &SET_MIX[..],
            &COUNTER_MIX[..],
            &TABLE_MIX[..],
        ] {
            assert_eq!(mix.iter().sum::<u32>(), 100);
        }
        let object_of = |op: &HotOp| match *op {
            HotOp::Push { obj, .. } | HotOp::Pop { obj } | HotOp::Top { obj } => obj as usize,
            HotOp::SetInsert { obj, .. }
            | HotOp::SetMember { obj, .. }
            | HotOp::SetDelete { obj, .. } => HOT_PER_TYPE + obj as usize,
            HotOp::Incr { obj } | HotOp::Read { obj } => 2 * HOT_PER_TYPE + obj as usize,
            HotOp::TableInsert { obj, .. } | HotOp::TableLookup { obj, .. } => {
                3 * HOT_PER_TYPE + obj as usize
            }
        };
        let (mut pushes, mut pops) = (0i64, 0i64);
        for txn in contended_stream(5, 0) {
            let objects: Vec<usize> = txn.iter().map(object_of).collect();
            assert!(objects.windows(2).all(|w| w[0] < w[1]), "{objects:?}");
            for op in txn {
                match op {
                    HotOp::Push { .. } => pushes += 1,
                    HotOp::Pop { .. } => pops += 1,
                    HotOp::SetDelete { key, .. } => assert!(key < DELETABLE_KEYS),
                    _ => {}
                }
            }
        }
        assert!(
            pushes > 2000 && pops >= pushes * 9 / 10,
            "{pushes} pushes, {pops} pops"
        );
    }

    #[test]
    fn readmostly_touches_counters_and_tables() {
        let stream = readmostly_stream::<RM_READS>(3, 0);
        let counters = stream
            .iter()
            .flatten()
            .filter(|a| (a.obj as usize) < RM_COUNTERS)
            .count();
        let all = stream.len() * RM_READS;
        assert!(counters > all / 4 && counters < all * 3 / 4);
    }
}
