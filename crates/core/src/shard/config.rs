//! Database-level configuration: the shard count and its environment
//! override, stable name → shard routing and the object location type.

use crate::object::ObjectId;
use crate::policy::SchedulerConfig;

/// Environment variable overriding the default shard count of
/// [`DatabaseConfig`] (used by CI to run the test suites single- and
/// multi-sharded). Accepts a positive integer or `auto`
/// ([`ShardCount::Auto`], one shard per available core).
pub const SHARDS_ENV: &str = "SBCC_SHARDS";

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
    /// [`ShardCount::Auto`]) and no write-ahead log.
    ///
    /// # Panics
    ///
    /// Panics if `SBCC_SHARDS` is set to anything but a positive integer
    /// or `auto` (see [`Self::shards_from_env`]).
    pub fn new(scheduler: SchedulerConfig) -> Self {
        DatabaseConfig {
            scheduler,
            shards: Self::shards_from_env(),
            wal: None,
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
    /// variable; one shard when it is unset.
    ///
    /// # Panics
    ///
    /// Panics, naming the variable and the rejected value, when it is set
    /// to something [`ShardCount`] cannot parse: a mistyped CI leg must
    /// not go green at one shard.
    pub fn shards_from_env() -> ShardCount {
        let value = std::env::var_os(SHARDS_ENV).map(|v| v.to_string_lossy().into_owned());
        Self::shards_from(value.as_deref())
    }

    /// [`Self::shards_from_env`] on an explicit value (`None` = unset).
    fn shards_from(value: Option<&str>) -> ShardCount {
        match value {
            None => ShardCount::Fixed(1),
            Some(v) => v
                .parse()
                .unwrap_or_else(|e| panic!("{SHARDS_ENV}={v:?} rejected: {e}")),
        }
    }

    /// Builder-style: enable the write-ahead log.
    pub fn with_wal(mut self, wal: sbcc_wal::WalConfig) -> Self {
        self.wal = Some(wal);
        self
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
        assert_eq!(
            DatabaseConfig::default().scheduler,
            SchedulerConfig::default()
        );
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
    fn shards_from_reads_unset_as_one_and_parses_the_rest() {
        assert_eq!(DatabaseConfig::shards_from(None), ShardCount::Fixed(1));
        assert_eq!(DatabaseConfig::shards_from(Some("8")), ShardCount::Fixed(8));
        assert_eq!(DatabaseConfig::shards_from(Some("auto")), ShardCount::Auto);
    }

    #[test]
    fn shards_from_rejects_what_it_cannot_parse() {
        for bad in ["0", "eight", "8 shards", ""] {
            let panic = std::panic::catch_unwind(|| DatabaseConfig::shards_from(Some(bad)))
                .expect_err("an unparsable SBCC_SHARDS must not fall back to one shard");
            let message = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(
                message.contains(SHARDS_ENV) && message.contains(&format!("{bad:?}")),
                "panic must name the variable and the value: {message}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = DatabaseConfig::new(SchedulerConfig::default()).with_shards(0);
    }
}
