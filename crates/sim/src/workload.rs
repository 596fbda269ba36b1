//! Workload generation: database population and per-transaction operation
//! scripts for the read/write and abstract-data-type models (Section 5.5).

use crate::config::{DataModel, SimParams};
use crate::rng::SimRng;
use sbcc_adt::{AbstractObject, OpCall};
use sbcc_core::{ObjectId, ShardedKernel};

/// Kind index of a read in the read/write model.
pub const RW_READ: usize = 0;
/// Kind index of a write in the read/write model.
pub const RW_WRITE: usize = 1;

/// Generates the database population and transaction scripts.
#[derive(Debug)]
pub struct WorkloadGenerator {
    data_model: DataModel,
    db_size: usize,
    min_length: usize,
    max_length: usize,
}

impl WorkloadGenerator {
    /// Build a generator from the simulation parameters.
    pub fn new(params: &SimParams) -> Self {
        WorkloadGenerator {
            data_model: params.data_model,
            db_size: params.db_size,
            min_length: params.min_length,
            max_length: params.max_length,
        }
    }

    /// Register the `db_size` objects with the kernel and return their ids
    /// (index `i` of the returned vector is object `i` of the database).
    ///
    /// * Read/write model: every object behaves like a Page (read/write
    ///   compatibility), with no materialised state — the simulation only
    ///   cares about conflicts.
    /// * Abstract-data-type model: every object gets its own randomly
    ///   generated compatibility table with `P_c` commutative and `P_r`
    ///   recoverable entries.
    ///
    /// Names and registration order, and therefore the (global) object
    /// ids, do not depend on the shard count — only the placement does, by
    /// the name hash.
    pub fn populate(&self, kernel: &ShardedKernel, rng: &mut SimRng) -> Vec<ObjectId> {
        let mut ids = Vec::with_capacity(self.db_size);
        for i in 0..self.db_size {
            let object = self.make_object(rng);
            let (id, _loc) = kernel
                .register_object(format!("obj{i}"), Box::new(object))
                .expect("object names are unique");
            ids.push(id);
        }
        ids
    }

    fn make_object(&self, rng: &mut SimRng) -> AbstractObject {
        match self.data_model {
            DataModel::ReadWrite { .. } => AbstractObject::read_write(),
            DataModel::AbstractAdt {
                ops_per_object,
                p_c,
                p_r,
            } => AbstractObject::random(ops_per_object, p_c, p_r, rng.inner()),
        }
    }

    /// Generate a transaction script: a uniformly distributed number of
    /// operations, each on a uniformly chosen object, with the operation
    /// kind drawn according to the data model.
    pub fn generate_script(
        &self,
        objects: &[ObjectId],
        rng: &mut SimRng,
    ) -> Vec<(ObjectId, OpCall)> {
        let length = rng.uniform_inclusive(self.min_length, self.max_length);
        let mut script = Vec::with_capacity(length);
        for _ in 0..length {
            let object = objects[rng.index(self.db_size)];
            let kind = match self.data_model {
                DataModel::ReadWrite { write_probability } => {
                    if rng.chance(write_probability) {
                        RW_WRITE
                    } else {
                        RW_READ
                    }
                }
                DataModel::AbstractAdt { ops_per_object, .. } => rng.index(ops_per_object),
            };
            script.push((object, OpCall::nullary(kind)));
        }
        script
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbcc_core::{ConflictPolicy, DatabaseConfig, SchedulerConfig};

    fn kernel() -> ShardedKernel {
        ShardedKernel::new(DatabaseConfig {
            scheduler: SchedulerConfig::default()
                .with_policy(ConflictPolicy::Recoverability)
                .with_history(false),
            shards: 1.into(),
            wal: None,
        })
    }

    #[test]
    fn populate_registers_db_size_objects() {
        let params = SimParams {
            db_size: 20,
            ..SimParams::default()
        };
        let gen = WorkloadGenerator::new(&params);
        let k = kernel();
        let mut rng = SimRng::new(1);
        let ids = gen.populate(&k, &mut rng);
        assert_eq!(ids.len(), 20);
        assert_eq!(k.object_count(), 20);
        assert_eq!(k.object_id("obj0"), Some(ids[0]));
        assert_eq!(k.object_id("obj19"), Some(ids[19]));
    }

    #[test]
    fn read_write_scripts_respect_the_write_probability() {
        let params = SimParams {
            db_size: 50,
            data_model: DataModel::ReadWrite {
                write_probability: 0.3,
            },
            ..SimParams::default()
        };
        let gen = WorkloadGenerator::new(&params);
        let k = kernel();
        let mut rng = SimRng::new(2);
        let ids = gen.populate(&k, &mut rng);

        let mut writes = 0usize;
        let mut total = 0usize;
        for _ in 0..2000 {
            let script = gen.generate_script(&ids, &mut rng);
            assert!(script.len() >= params.min_length && script.len() <= params.max_length);
            for (_, call) in &script {
                assert!(call.kind == RW_READ || call.kind == RW_WRITE);
                if call.kind == RW_WRITE {
                    writes += 1;
                }
                total += 1;
            }
        }
        let ratio = writes as f64 / total as f64;
        assert!(
            (ratio - 0.3).abs() < 0.03,
            "write ratio {ratio} should be close to 0.3"
        );
    }

    #[test]
    fn adt_scripts_use_all_operation_kinds_uniformly() {
        let params = SimParams {
            db_size: 10,
            data_model: DataModel::abstract_adt(4, 4),
            ..SimParams::default()
        };
        let gen = WorkloadGenerator::new(&params);
        let k = kernel();
        let mut rng = SimRng::new(3);
        let ids = gen.populate(&k, &mut rng);
        let mut counts = [0usize; 4];
        for _ in 0..1000 {
            for (_, call) in gen.generate_script(&ids, &mut rng) {
                assert!(call.kind < 4);
                counts[call.kind] += 1;
            }
        }
        let total: usize = counts.iter().sum();
        for c in counts {
            let share = c as f64 / total as f64;
            assert!((share - 0.25).abs() < 0.05, "operation share {share}");
        }
    }

    #[test]
    fn scripts_are_deterministic_for_a_seed() {
        let params = SimParams {
            db_size: 30,
            ..SimParams::default()
        };
        let gen = WorkloadGenerator::new(&params);
        let k1 = kernel();
        let k2 = kernel();
        let mut r1 = SimRng::new(9);
        let mut r2 = SimRng::new(9);
        let ids1 = gen.populate(&k1, &mut r1);
        let ids2 = gen.populate(&k2, &mut r2);
        assert_eq!(ids1, ids2);
        for _ in 0..10 {
            assert_eq!(
                gen.generate_script(&ids1, &mut r1),
                gen.generate_script(&ids2, &mut r2)
            );
        }
    }
}
