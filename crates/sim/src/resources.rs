//! Hardware resource model (Section 5.1).
//!
//! Under **infinite resources** every operation simply takes `step_time`.
//! Under **finite resources** the database owns `resource_units` units, each
//! consisting of one CPU and two disks. A transaction step first acquires a
//! CPU from the shared pool (FIFO), holds it for `cpu_time`, then queues at
//! a randomly chosen disk for `io_time`.

use crate::event::SimTxnKey;
use std::collections::VecDeque;

/// The shared CPU pool and per-disk queues for the finite-resource model.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    free_cpus: usize,
    cpu_queue: VecDeque<SimTxnKey>,
    disks: Vec<Disk>,
}

#[derive(Debug, Clone, Default)]
struct Disk {
    busy: bool,
    queue: VecDeque<SimTxnKey>,
}

/// What happened when a transaction asked for a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grant {
    /// The resource was free: service starts immediately.
    Acquired,
    /// The resource is busy: the transaction was queued and will be granted
    /// the resource when it frees up.
    Queued,
}

impl ResourcePool {
    /// Create a pool with `resource_units` units (1 CPU + 2 disks each).
    pub fn new(resource_units: usize) -> Self {
        assert!(resource_units > 0, "at least one resource unit is required");
        ResourcePool {
            free_cpus: resource_units,
            cpu_queue: VecDeque::new(),
            disks: vec![Disk::default(); resource_units * 2],
        }
    }

    /// Number of disks in the pool.
    pub fn disk_count(&self) -> usize {
        self.disks.len()
    }

    /// Ask for a CPU. Returns [`Grant::Acquired`] if service can start now.
    pub fn acquire_cpu(&mut self, txn: SimTxnKey) -> Grant {
        if self.free_cpus > 0 {
            self.free_cpus -= 1;
            Grant::Acquired
        } else {
            self.cpu_queue.push_back(txn);
            Grant::Queued
        }
    }

    /// Release a CPU; if someone is waiting, the CPU is handed to them and
    /// their key is returned so the caller can start their service.
    pub fn release_cpu(&mut self) -> Option<SimTxnKey> {
        if let Some(next) = self.cpu_queue.pop_front() {
            Some(next)
        } else {
            self.free_cpus += 1;
            None
        }
    }

    /// Ask for a specific disk.
    pub fn acquire_disk(&mut self, disk: usize, txn: SimTxnKey) -> Grant {
        let d = &mut self.disks[disk];
        if d.busy {
            d.queue.push_back(txn);
            Grant::Queued
        } else {
            d.busy = true;
            Grant::Acquired
        }
    }

    /// Release a disk; returns the next queued transaction, if any, which
    /// immediately starts service on that disk.
    pub fn release_disk(&mut self, disk: usize) -> Option<SimTxnKey> {
        let d = &mut self.disks[disk];
        if let Some(next) = d.queue.pop_front() {
            Some(next)
        } else {
            d.busy = false;
            None
        }
    }

    /// Remove every queued entry of a transaction from the CPU and disk
    /// queues (it was aborted asynchronously — e.g. as a `Youngest` cycle
    /// victim — and must not be granted a resource it no longer wants).
    /// Resources it currently *holds* are reclaimed when their in-flight
    /// service event fires (the stale-event path in the simulator).
    pub fn purge(&mut self, txn: SimTxnKey) {
        self.cpu_queue.retain(|k| *k != txn);
        for disk in &mut self.disks {
            disk.queue.retain(|k| *k != txn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_pool_grants_and_queues() {
        let mut pool = ResourcePool::new(2);
        assert_eq!(pool.disk_count(), 4);
        assert_eq!(pool.acquire_cpu(1), Grant::Acquired);
        assert_eq!(pool.acquire_cpu(2), Grant::Acquired);
        assert_eq!(pool.acquire_cpu(3), Grant::Queued);
        // Releasing hands the CPU to the waiter.
        assert_eq!(pool.release_cpu(), Some(3));
        // Releasing with an empty queue frees the CPU.
        assert_eq!(pool.release_cpu(), None);
        assert_eq!(pool.release_cpu(), None);
        assert_eq!(pool.acquire_cpu(4), Grant::Acquired);
    }

    #[test]
    fn disks_are_independent_fifo_queues() {
        let mut pool = ResourcePool::new(1);
        assert_eq!(pool.acquire_disk(0, 1), Grant::Acquired);
        assert_eq!(pool.acquire_disk(1, 2), Grant::Acquired);
        assert_eq!(pool.acquire_disk(0, 3), Grant::Queued);
        assert_eq!(pool.acquire_disk(0, 4), Grant::Queued);
        assert_eq!(pool.release_disk(0), Some(3));
        assert_eq!(pool.release_disk(0), Some(4));
        assert_eq!(pool.release_disk(0), None);
        assert_eq!(pool.release_disk(1), None);
    }

    #[test]
    #[should_panic(expected = "at least one resource unit")]
    fn zero_units_rejected() {
        ResourcePool::new(0);
    }

    #[test]
    fn purge_drops_queued_entries_everywhere() {
        let mut pool = ResourcePool::new(1);
        assert_eq!(pool.acquire_cpu(1), Grant::Acquired);
        assert_eq!(pool.acquire_cpu(2), Grant::Queued);
        assert_eq!(pool.acquire_cpu(3), Grant::Queued);
        assert_eq!(pool.acquire_disk(0, 4), Grant::Acquired);
        assert_eq!(pool.acquire_disk(0, 2), Grant::Queued);
        pool.purge(2);
        // The CPU goes to the surviving waiter, not the purged one.
        assert_eq!(pool.release_cpu(), Some(3));
        assert_eq!(pool.release_disk(0), None);
    }
}
