//! Scheduler configuration: conflict policy, fairness, history and the
//! retry budget. A request that would close a cycle always aborts its own
//! transaction (the paper's Figure-2 choice); the victim is not an option.

use std::fmt;

/// Which semantic relation defines a conflict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConflictPolicy {
    /// The baseline the paper compares against: a requested operation may
    /// execute only if it **commutes** with every uncommitted operation of
    /// other live transactions; otherwise the requester waits.
    CommutativityOnly,
    /// The paper's contribution: a requested operation may also execute if
    /// it is **recoverable** relative to the uncommitted operations it does
    /// not commute with, at the price of commit-dependency edges.
    Recoverability,
}

impl ConflictPolicy {
    /// Short label used in experiment output.
    pub fn label(self) -> &'static str {
        match self {
            ConflictPolicy::CommutativityOnly => "commutativity",
            ConflictPolicy::Recoverability => "recoverability",
        }
    }
}

impl fmt::Display for ConflictPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How transaction effects are undone (Section 4.4): always by discarding an
/// intentions list.
///
/// Residue: the frozen `bench/` names `RecoveryStrategy::IntentionsList` as
/// the fourth argument of [`crate::ManagedObject::new`], so the enum keeps
/// its one variant and the constructor keeps (and ignores) the parameter
/// until the `[benchmark]` issue of ROADMAP item 1 drops both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecoveryStrategy {
    /// Operations are buffered per transaction (an intentions list); return
    /// values are computed against the committed state plus the invoking
    /// transaction's own earlier operations, and the effects are applied to
    /// the shared committed state only at actual commit, in
    /// commit-dependency order. Aborts simply discard the intentions.
    IntentionsList,
}

/// Complete scheduler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulerConfig {
    /// Conflict predicate (commutativity-only vs recoverability).
    pub policy: ConflictPolicy,
    /// Fair scheduling: an incoming request that conflicts with a *blocked*
    /// request is blocked behind it, even if it does not conflict with any
    /// active operation (Section 5.2, "real database systems do this to
    /// prevent starvation of writers by readers").
    pub fair_scheduling: bool,
    /// Record the full execution history (needed by the serializability
    /// checker; adds memory proportional to the number of operations).
    pub record_history: bool,
    /// Retry budget for the closure runners ([`crate::Database::run`] and
    /// [`crate::aio::AsyncDatabase::run`]): how many times a scheduler
    /// abort may restart the body before the runner gives up with
    /// [`crate::CoreError::RetriesExhausted`]. The default (10 000) is far
    /// beyond anything a healthy workload reaches — the budget exists so
    /// adversarial schedules and fault-injection harnesses surface as an
    /// error instead of a livelock.
    pub max_retries: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            policy: ConflictPolicy::Recoverability,
            fair_scheduling: true,
            record_history: true,
            max_retries: 10_000,
        }
    }
}

impl SchedulerConfig {
    /// The commutativity-only baseline configuration.
    pub fn commutativity_baseline() -> Self {
        SchedulerConfig {
            policy: ConflictPolicy::CommutativityOnly,
            ..SchedulerConfig::default()
        }
    }

    /// Builder-style: set the conflict policy.
    pub fn with_policy(mut self, policy: ConflictPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Builder-style: enable or disable fair scheduling.
    pub fn with_fair_scheduling(mut self, fair: bool) -> Self {
        self.fair_scheduling = fair;
        self
    }

    /// Builder-style: enable or disable history recording.
    pub fn with_history(mut self, record: bool) -> Self {
        self.record_history = record;
        self
    }

    /// Builder-style: set the retry budget of the closure runners.
    pub fn with_max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_uses_recoverability_with_fairness() {
        let c = SchedulerConfig::default();
        assert_eq!(c.policy, ConflictPolicy::Recoverability);
        assert!(c.fair_scheduling);
        assert!(c.record_history);
        assert_eq!(c.max_retries, 10_000);
    }

    #[test]
    fn baseline_only_differs_in_policy() {
        let base = SchedulerConfig::commutativity_baseline();
        assert_eq!(base.policy, ConflictPolicy::CommutativityOnly);
        assert_eq!(
            SchedulerConfig {
                policy: ConflictPolicy::Recoverability,
                ..base
            },
            SchedulerConfig::default()
        );
    }

    #[test]
    fn builder_methods_set_each_field() {
        let c = SchedulerConfig::default()
            .with_policy(ConflictPolicy::CommutativityOnly)
            .with_fair_scheduling(false)
            .with_history(false)
            .with_max_retries(7);
        assert_eq!(c.policy, ConflictPolicy::CommutativityOnly);
        assert!(!c.fair_scheduling);
        assert!(!c.record_history);
        assert_eq!(c.max_retries, 7);
    }

    #[test]
    fn labels_and_display() {
        assert_eq!(ConflictPolicy::CommutativityOnly.to_string(), "commutativity");
        assert_eq!(ConflictPolicy::Recoverability.to_string(), "recoverability");
    }
}
