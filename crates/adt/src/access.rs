//! Declared access sets: the footprint a batch *promises* to stay inside.
//!
//! **Kernel residue.** Nothing above `SchedulerKernel` submits
//! declarations any more (sessions, wire, recovery and DST all go through
//! the classifier); [`AccessSet`] stays because the frozen `bench/` probes
//! build one for the kernel's declared-batch entry point, and leaves with
//! them.
//!
//! A declaration is a promise, never a proof: the kernel re-checks every
//! call against the declared set at admission and falls back to the
//! semantic classifier the moment an operation touches an undeclared
//! object.

/// A declared read/write footprint over objects of key type `T`.
///
/// Both sets are kept sorted and deduplicated, so membership tests are
/// `O(log n)` and iteration order is deterministic. **Write coverage
/// implies read coverage** (a declared writer may also read the object),
/// mirroring the Block-STM convention that a write access subsumes a
/// read access to the same location.
///
/// ```
/// use sbcc_adt::AccessSet;
///
/// let mut set = AccessSet::new();
/// set.declare_read("a");
/// set.declare_write("b");
/// assert!(set.covers_read(&"a") && set.covers_read(&"b"));
/// assert!(set.covers_write(&"b") && !set.covers_write(&"a"));
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AccessSet<T> {
    /// Objects declared read-only, sorted and deduplicated.
    reads: Vec<T>,
    /// Objects declared written (write implies read), sorted and
    /// deduplicated.
    writes: Vec<T>,
}

impl<T: Ord> AccessSet<T> {
    /// An empty declaration (covers nothing).
    pub fn new() -> Self {
        AccessSet {
            reads: Vec::new(),
            writes: Vec::new(),
        }
    }

    /// Build a set from unordered read/write lists (duplicates are
    /// collapsed; an object in both lists is a write).
    pub fn from_parts(reads: Vec<T>, writes: Vec<T>) -> Self {
        let mut set = AccessSet::new();
        for r in reads {
            set.declare_read(r);
        }
        for w in writes {
            set.declare_write(w);
        }
        set
    }

    /// Declare a read-only access to `object`. A no-op when the object is
    /// already declared (as a read or as a write).
    pub fn declare_read(&mut self, object: T) {
        if self.covers_read(&object) {
            return;
        }
        let at = self.reads.binary_search(&object).unwrap_err();
        self.reads.insert(at, object);
    }

    /// Declare a write access to `object` (which also covers reads of
    /// it). Promotes an existing read declaration.
    pub fn declare_write(&mut self, object: T) {
        if self.covers_write(&object) {
            return;
        }
        if let Ok(at) = self.reads.binary_search(&object) {
            self.reads.remove(at);
        }
        let at = self.writes.binary_search(&object).unwrap_err();
        self.writes.insert(at, object);
    }

    /// Does the declaration cover a *read* of `object`? (Declared writes
    /// cover reads too.)
    pub fn covers_read(&self, object: &T) -> bool {
        self.reads.binary_search(object).is_ok() || self.covers_write(object)
    }

    /// Does the declaration cover a *write* of `object`?
    pub fn covers_write(&self, object: &T) -> bool {
        self.writes.binary_search(object).is_ok()
    }

    /// `true` when nothing is declared.
    pub fn is_empty(&self) -> bool {
        self.reads.is_empty() && self.writes.is_empty()
    }

    /// Number of declared objects (reads and writes combined; an object
    /// is counted once).
    pub fn len(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// The declared read-only objects, sorted (writes are *not* repeated
    /// here even though they cover reads).
    pub fn reads(&self) -> &[T] {
        &self.reads
    }

    /// The declared written objects, sorted.
    pub fn writes(&self) -> &[T] {
        &self.writes
    }

    /// Every declared object (reads then writes; each sorted, overall
    /// deduplicated by construction).
    pub fn objects(&self) -> impl Iterator<Item = &T> {
        self.reads.iter().chain(self.writes.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declarations_sort_dedupe_and_promote() {
        let mut set = AccessSet::new();
        set.declare_read(3u32);
        set.declare_read(1);
        set.declare_read(3);
        set.declare_write(2);
        set.declare_write(2);
        assert_eq!(set.reads(), &[1, 3]);
        assert_eq!(set.writes(), &[2]);
        assert_eq!(set.len(), 3);
        assert!(!set.is_empty());

        // Write promotion removes the read entry.
        set.declare_write(3);
        assert_eq!(set.reads(), &[1]);
        assert_eq!(set.writes(), &[2, 3]);
        // A write is never demoted back to a read.
        set.declare_read(3);
        assert_eq!(set.reads(), &[1]);
        assert_eq!(set.writes(), &[2, 3]);
    }

    #[test]
    fn write_coverage_implies_read_coverage() {
        let set = AccessSet::from_parts(vec![1u32], vec![2]);
        assert!(set.covers_read(&1));
        assert!(!set.covers_write(&1));
        assert!(set.covers_read(&2));
        assert!(set.covers_write(&2));
        assert!(!set.covers_read(&3));
        assert!(!set.covers_write(&3));
    }

    #[test]
    fn from_parts_treats_read_plus_write_as_write() {
        let set = AccessSet::from_parts(vec![7u32, 7, 8], vec![7]);
        assert_eq!(set.reads(), &[8]);
        assert_eq!(set.writes(), &[7]);
        assert_eq!(set.objects().copied().collect::<Vec<_>>(), vec![8, 7]);
    }
}
