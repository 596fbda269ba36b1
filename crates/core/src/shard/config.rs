//! Database-level configuration: the shard count, the environment
//! overrides, stable name → shard routing and the object location type.

use crate::object::ObjectId;
use crate::policy::SchedulerConfig;

/// Environment variable overriding the default shard count of
/// [`DatabaseConfig`] (used by CI to run the test suites single- and
/// multi-sharded). Accepts a positive integer or `auto`
/// ([`ShardCount::Auto`], one shard per available core).
pub const SHARDS_ENV: &str = "SBCC_SHARDS";

/// Environment variable enabling the write-ahead log: its value is the log
/// directory (see [`DatabaseConfig::wal_from_env`]).
pub const WAL_ENV: &str = "SBCC_WAL";

/// Environment variable overriding the WAL fsync policy
/// (`never` / `group` / `always`).
pub const WAL_FSYNC_ENV: &str = "SBCC_WAL_FSYNC";

/// The shard count of a [`DatabaseConfig`]: either a fixed number of
/// kernels or `Auto`, which resolves to the machine's available
/// parallelism at [`crate::ShardedKernel::new`] time.
///
/// `Auto` is the right default for servers: with one shard per core,
/// disjoint-footprint sessions spread across per-shard locks and the
/// per-termination settle sweep only walks the shard-local live
/// population. Both builder and environment variable accept it:
///
/// ```
/// use sbcc_core::{DatabaseConfig, SchedulerConfig, ShardCount};
/// let config = DatabaseConfig::new(SchedulerConfig::default())
///     .with_shards(ShardCount::Auto);
/// assert!(config.shards.resolve() >= 1);
/// // `with_shards` still takes plain integers too:
/// let fixed = DatabaseConfig::new(SchedulerConfig::default()).with_shards(4);
/// assert_eq!(fixed.shards, ShardCount::Fixed(4));
/// assert_eq!("auto".parse::<ShardCount>(), Ok(ShardCount::Auto));
/// assert_eq!("8".parse::<ShardCount>(), Ok(ShardCount::Fixed(8)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardCount {
    /// Exactly this many shards ( ≥ 1 ). One shard reproduces the
    /// unsharded kernel's behaviour exactly.
    Fixed(usize),
    /// One shard per available core
    /// ([`std::thread::available_parallelism`], falling back to 1 when the
    /// platform cannot report it).
    Auto,
}

impl ShardCount {
    /// The concrete number of shards this setting stands for, resolved
    /// against the current machine.
    pub fn resolve(self) -> usize {
        match self {
            ShardCount::Fixed(n) => n,
            ShardCount::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl From<usize> for ShardCount {
    fn from(n: usize) -> Self {
        ShardCount::Fixed(n)
    }
}

impl std::fmt::Display for ShardCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardCount::Fixed(n) => write!(f, "{n}"),
            ShardCount::Auto => f.write_str("auto"),
        }
    }
}

impl std::str::FromStr for ShardCount {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ShardCount::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(ShardCount::Fixed(n)),
            _ => Err(format!(
                "expected a positive shard count or \"auto\", got {s:?}"
            )),
        }
    }
}

/// Database-level configuration: the per-shard scheduler configuration plus
/// the shard count.
#[derive(Debug, Clone, PartialEq)]
pub struct DatabaseConfig {
    /// Scheduler configuration applied to every shard kernel.
    pub scheduler: SchedulerConfig,
    /// Number of independent scheduler kernels (fixed ≥ 1, or
    /// [`ShardCount::Auto`] for one per core).
    pub shards: ShardCount,
    /// Write-ahead-log configuration. `None` (the default) runs without
    /// durability; `Some` makes [`crate::Database::with_config`] replay
    /// the log directory on open and append every committed transaction's
    /// operations from then on.
    pub wal: Option<sbcc_wal::WalConfig>,
}

impl Default for DatabaseConfig {
    fn default() -> Self {
        DatabaseConfig::new(SchedulerConfig::default())
    }
}

impl DatabaseConfig {
    /// Configuration with the shard count taken from the `SBCC_SHARDS`
    /// environment variable (default 1; `auto` selects
    /// [`ShardCount::Auto`]).
    pub fn new(scheduler: SchedulerConfig) -> Self {
        DatabaseConfig {
            scheduler,
            shards: Self::shards_from_env(),
            wal: Self::wal_from_env(),
        }
    }

    /// Builder-style: set the shard count. Accepts a plain `usize` or a
    /// [`ShardCount`] (`.with_shards(ShardCount::Auto)`).
    ///
    /// # Panics
    ///
    /// Panics if the count is a fixed zero.
    pub fn with_shards(mut self, shards: impl Into<ShardCount>) -> Self {
        let shards = shards.into();
        assert!(
            shards != ShardCount::Fixed(0),
            "at least one shard is required"
        );
        self.shards = shards;
        self
    }

    /// The shard count requested through the `SBCC_SHARDS` environment
    /// variable, defaulting to one shard when unset or unparsable.
    pub fn shards_from_env() -> ShardCount {
        std::env::var(SHARDS_ENV)
            .ok()
            .and_then(|v| v.parse::<ShardCount>().ok())
            .unwrap_or(ShardCount::Fixed(1))
    }

    /// Builder-style: enable the write-ahead log.
    pub fn with_wal(mut self, wal: sbcc_wal::WalConfig) -> Self {
        self.wal = Some(wal);
        self
    }

    /// The write-ahead-log configuration requested through the environment:
    /// `SBCC_WAL=<dir>` enables the log (group-commit fsync by default),
    /// `SBCC_WAL_FSYNC=never|group|always` overrides the fsync policy.
    /// Unset (or an empty `SBCC_WAL`) disables durability.
    pub fn wal_from_env() -> Option<sbcc_wal::WalConfig> {
        let dir = std::env::var(WAL_ENV).ok().filter(|d| !d.is_empty())?;
        let mut config = sbcc_wal::WalConfig::new(dir);
        if let Ok(policy) = std::env::var(WAL_FSYNC_ENV) {
            config.fsync = match policy.as_str() {
                "never" => sbcc_wal::FsyncPolicy::Never,
                "always" => sbcc_wal::FsyncPolicy::Always,
                _ => sbcc_wal::FsyncPolicy::GroupCommit,
            };
        }
        Some(config)
    }
}

/// Stable shard routing: FNV-1a over the registration name, reduced modulo
/// the shard count. Deterministic across runs and platforms.
pub fn shard_of_name(name: &str, shards: usize) -> u32 {
    debug_assert!(shards >= 1);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % shards as u64) as u32
}

/// Where an object lives: its shard plus its id *inside that shard's
/// kernel*. Carried by [`crate::ObjectHandle`] so the session layer routes
/// without a directory lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjectLoc {
    /// Owning shard.
    pub shard: u32,
    /// The object's id within the owning shard's kernel.
    pub local: ObjectId,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builder_and_env_default() {
        let config = DatabaseConfig::new(SchedulerConfig::default());
        assert!(config.shards.resolve() >= 1);
        let config = config.with_shards(4);
        assert_eq!(config.shards, ShardCount::Fixed(4));
        assert_eq!(DatabaseConfig::default().scheduler, SchedulerConfig::default());
    }

    #[test]
    fn shard_count_parses_and_resolves() {
        assert_eq!("4".parse::<ShardCount>(), Ok(ShardCount::Fixed(4)));
        assert_eq!(" auto ".parse::<ShardCount>(), Ok(ShardCount::Auto));
        assert_eq!("AUTO".parse::<ShardCount>(), Ok(ShardCount::Auto));
        assert!("0".parse::<ShardCount>().is_err());
        assert!("".parse::<ShardCount>().is_err());
        assert!("-3".parse::<ShardCount>().is_err());
        assert_eq!(ShardCount::Fixed(7).resolve(), 7);
        assert_eq!(ShardCount::from(3), ShardCount::Fixed(3));
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        assert_eq!(ShardCount::Auto.resolve(), cores);
        assert_eq!(ShardCount::Auto.to_string(), "auto");
        assert_eq!(ShardCount::Fixed(2).to_string(), "2");
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DatabaseConfig::new(SchedulerConfig::default()).with_shards(0);
    }
}
