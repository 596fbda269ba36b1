//! The discrete-event core: a time-ordered event queue with deterministic
//! tie-breaking.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Index of a simulated transaction (stable across restarts, unlike the
/// kernel transaction id which changes every time the transaction restarts).
pub type SimTxnKey = usize;

/// Service stages a transaction step can be waiting for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServiceStage {
    /// Fixed-delay service under infinite resources.
    Step,
    /// CPU service under finite resources.
    Cpu,
    /// Disk service under finite resources (which disk is busy).
    Disk {
        /// Index of the disk being used.
        disk: usize,
    },
}

/// Events driving the closed queuing network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A terminal finished thinking and submits a new transaction.
    TerminalSubmit {
        /// The submitting terminal.
        terminal: usize,
    },
    /// A transaction finished a service stage of its current operation.
    ServiceDone {
        /// The simulated transaction.
        txn: SimTxnKey,
        /// Which stage completed.
        stage: ServiceStage,
    },
}

#[derive(Debug, Clone)]
struct Scheduled {
    time: f64,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Scheduled {}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse ordering: BinaryHeap is a max-heap, we want earliest first.
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are never NaN")
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic discrete-event queue.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    now: f64,
}

impl EventQueue {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: 0.0,
        }
    }

    /// The current simulation time (the time of the last popped event).
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Schedule `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_in(&mut self, delay: f64, event: Event) {
        assert!(delay >= 0.0 && delay.is_finite(), "invalid delay {delay}");
        self.schedule_at(self.now + delay, event);
    }

    /// Schedule `event` at an absolute time (not before the current time).
    pub fn schedule_at(&mut self, time: f64, event: Event) {
        assert!(
            time >= self.now && time.is_finite(),
            "cannot schedule into the past ({time} < {})",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled { time, seq, event });
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(f64, Event)> {
        let scheduled = self.heap.pop()?;
        debug_assert!(scheduled.time >= self.now, "time went backwards");
        self.now = scheduled.time;
        Some((scheduled.time, scheduled.event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_in(2.0, Event::TerminalSubmit { terminal: 2 });
        q.schedule_in(1.0, Event::TerminalSubmit { terminal: 1 });
        q.schedule_in(3.0, Event::TerminalSubmit { terminal: 3 });
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| match e {
            Event::TerminalSubmit { terminal } => terminal,
            _ => unreachable!(),
        })
        .collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(q.pop(), None);
        assert!((q.now() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for terminal in 0..5 {
            q.schedule_in(1.0, Event::TerminalSubmit { terminal });
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop()).map(|(_, e)| match e {
            Event::TerminalSubmit { terminal } => terminal,
            _ => unreachable!(),
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(0.5, Event::ServiceDone { txn: 1, stage: ServiceStage::Step });
        let (t, _) = q.pop().unwrap();
        assert!((t - 0.5).abs() < 1e-12);
        // scheduling relative to the new now
        q.schedule_in(0.25, Event::ServiceDone { txn: 2, stage: ServiceStage::Cpu });
        let (t, e) = q.pop().unwrap();
        assert!((t - 0.75).abs() < 1e-12);
        assert_eq!(e, Event::ServiceDone { txn: 2, stage: ServiceStage::Cpu });
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "invalid delay")]
    fn negative_delays_are_rejected() {
        let mut q = EventQueue::new();
        q.schedule_in(-1.0, Event::TerminalSubmit { terminal: 0 });
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_is_rejected() {
        let mut q = EventQueue::new();
        q.schedule_in(1.0, Event::TerminalSubmit { terminal: 0 });
        q.pop();
        q.schedule_at(0.5, Event::TerminalSubmit { terminal: 1 });
    }
}
