//! Env-driven knobs for the CI determinism matrix.
//!
//! The equivalence suites under `tests/` read these and pass the values
//! on as explicit configuration; keeping the parsing (and the defaults
//! the matrix legs rely on) in one place stops the test binaries from
//! drifting apart. Nothing outside this module parses a matrix variable —
//! the library crates take no defaults from the environment.

/// Worker counts under test: `CB_EQ_WORKERS=2` or `CB_EQ_WORKERS=1,2,4`
/// (default `1,4`).
pub fn workers() -> Vec<usize> {
    match std::env::var("CB_EQ_WORKERS") {
        Ok(v) => v
            .split(',')
            .map(|w| w.trim().parse().expect("CB_EQ_WORKERS: usize list"))
            .collect(),
        Err(_) => vec![1, 4],
    }
}

/// Merge-shard counts under test: `CB_MERGE_SHARDS=4` or
/// `CB_MERGE_SHARDS=1,2,4` (default `1,2`).
pub fn merge_shards() -> Vec<usize> {
    match std::env::var("CB_MERGE_SHARDS") {
        Ok(v) => v
            .split(',')
            .map(|s| s.trim().parse().expect("CB_MERGE_SHARDS: usize list"))
            .collect(),
        Err(_) => vec![1, 2],
    }
}

/// Seed driving the scenario/state-drift variation: `CB_EQ_SEED=9002`
/// (default `1213`). CI legs span residues mod 3 and parities, since the
/// drift mutations key off them.
pub fn seed() -> u64 {
    match std::env::var("CB_EQ_SEED") {
        Ok(v) => v.trim().parse().expect("CB_EQ_SEED: u64"),
        Err(_) => 1213,
    }
}

/// Whether parallel engines under test use the compacted explored-set
/// layout: `CB_COMPACT_EXPLORED=1` (also `true`/`on`; default off).
pub fn compact_explored() -> bool {
    std::env::var("CB_COMPACT_EXPLORED").is_ok_and(|v| matches!(v.trim(), "1" | "true" | "on"))
}

/// Whether controllers under test memoize rounds: on unless
/// `CB_PRED_CACHE` is `0`/`off`/`false`.
pub fn prediction_cache() -> bool {
    std::env::var("CB_PRED_CACHE").map_or(true, |v| !matches!(v.trim(), "0" | "off" | "false"))
}

#[cfg(test)]
mod tests {
    // Reading real env vars in tests races other tests' processes, so
    // only the unset-default path is asserted here.
    #[test]
    fn defaults_without_env() {
        if std::env::var("CB_EQ_WORKERS").is_err() {
            assert_eq!(super::workers(), vec![1, 4]);
        }
        if std::env::var("CB_EQ_SEED").is_err() {
            assert_eq!(super::seed(), 1213);
        }
        if std::env::var("CB_MERGE_SHARDS").is_err() {
            assert_eq!(super::merge_shards(), vec![1, 2]);
        }
        if std::env::var("CB_COMPACT_EXPLORED").is_err() {
            assert!(!super::compact_explored());
        }
        if std::env::var("CB_PRED_CACHE").is_err() {
            assert!(super::prediction_cache());
        }
    }
}
