//! Uniform parsing for the workspace's environment quota knobs.
//!
//! `UWB_FLIGHT_QUOTA` and `UWB_NETSIM_TRACE_QUOTA` historically parsed
//! their values independently, and both *silently* fell back to the
//! default on malformed input — a typo like `UWB_FLIGHT_QUOTA=4O96`
//! diverged the two knobs without a trace. Every quota knob now goes
//! through [`quota_from_env`]: a well-formed non-negative integer is
//! used as-is, an unset variable yields the default quietly, and
//! anything else warns once on stderr and falls back to the default.

use std::env::VarError;

/// Parses one already-read quota value, warning on stderr when `raw` is
/// not a non-negative integer and falling back to `default`.
///
/// Split from [`quota_from_env`] so the policy is testable without
/// mutating the process environment (env mutation races with parallel
/// tests).
#[must_use]
pub fn parse_quota(var: &str, raw: &str, default: u64) -> u64 {
    match raw.trim().parse::<u64>() {
        Ok(v) => v,
        Err(_) => {
            eprintln!(
                "warning: {var}={raw:?} is not a valid quota \
                 (expected a non-negative integer); using default {default}"
            );
            default
        }
    }
}

/// Reads the quota knob `var` from the environment.
///
/// Unset → `default` (silently). Set but malformed (non-integer,
/// negative, or non-unicode) → warn on stderr, then `default`. The
/// meaning of `0` is knob-specific (unbounded for the trace rings,
/// disabled for the flight recorder) and decided by the caller.
#[must_use]
pub fn quota_from_env(var: &str, default: u64) -> u64 {
    match std::env::var(var) {
        Ok(raw) => parse_quota(var, &raw, default),
        Err(VarError::NotPresent) => default,
        Err(VarError::NotUnicode(_)) => {
            eprintln!("warning: {var} is set to a non-unicode value; using default {default}");
            default
        }
    }
}

/// Parses one already-read label value against a closed set of
/// `allowed` labels, warning on stderr and falling back to `default`
/// when `raw` matches none of them.
///
/// Matching trims surrounding whitespace and ignores ASCII case, so
/// `UWB_DSP_BACKEND=" RFFT "` selects `rfft`. Split from
/// [`label_from_env`] for the same reason as [`parse_quota`]: the
/// policy is testable without mutating the process environment.
#[must_use]
pub fn parse_label<'a>(var: &str, raw: &str, default: &'a str, allowed: &[&'a str]) -> &'a str {
    let trimmed = raw.trim();
    for label in allowed {
        if label.eq_ignore_ascii_case(trimmed) {
            return label;
        }
    }
    eprintln!(
        "warning: {var}={raw:?} is not a recognized value \
         (expected one of {allowed:?}); using default {default:?}"
    );
    default
}

/// Reads the label knob `var` from the environment.
///
/// Unset → `default` (silently). Set but unrecognized (not in
/// `allowed`, or non-unicode) → warn on stderr, then `default`. The
/// returned label is always one of `allowed` (callers should include
/// `default` in the set).
#[must_use]
pub fn label_from_env<'a>(var: &str, default: &'a str, allowed: &[&'a str]) -> &'a str {
    match std::env::var(var) {
        Ok(raw) => parse_label(var, &raw, default, allowed),
        Err(VarError::NotPresent) => default,
        Err(VarError::NotUnicode(_)) => {
            eprintln!("warning: {var} is set to a non-unicode value; using default {default:?}");
            default
        }
    }
}

/// Parses one already-read worker-thread value, returning `Some(n)` for
/// a positive integer, `None` (quietly) for `0` — the documented
/// "automatic" value, matching the `--threads 0` CLI contract — and
/// `None` with a stderr warning for anything else.
///
/// Split from [`threads_from_named_env`] so the policy is testable
/// without mutating the process environment, like [`parse_quota`].
#[must_use]
pub fn parse_threads(var: &str, raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(0) => None,
        Ok(n) => Some(n),
        Err(_) => {
            eprintln!(
                "warning: {var}={raw:?} is not a valid thread count \
                 (expected a non-negative integer); using automatic selection"
            );
            None
        }
    }
}

/// Resolves a worker-thread knob: the environment variable `var` when
/// set to a positive integer, otherwise `default`, otherwise (when
/// `default` is 0) the machine's available parallelism.
///
/// The single thread-count precedence policy shared by the campaign
/// engine (`UWB_CAMPAIGN_THREADS`) and the sharded world simulator
/// (`UWB_WORLDSIM_THREADS`): a positive environment value overrides the
/// caller's `default` (which carries the `--threads N` CLI knob, 0 =
/// automatic), and a malformed variable warns on stderr and falls back
/// — the quota-knob contract. Thread count never changes results, only
/// wall-clock time.
#[must_use]
pub fn threads_from_named_env(var: &str, default: usize) -> usize {
    let from_env = match std::env::var(var) {
        Ok(raw) => parse_threads(var, &raw),
        Err(VarError::NotPresent) => None,
        Err(VarError::NotUnicode(_)) => {
            eprintln!("warning: {var} is set to a non-unicode value; using automatic selection");
            None
        }
    };
    match (from_env, default) {
        (Some(n), _) => n,
        (None, 0) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        (None, d) => d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_formed_values_pass_through() {
        assert_eq!(parse_quota("K", "0", 9), 0);
        assert_eq!(parse_quota("K", "4096", 9), 4096);
        assert_eq!(
            parse_quota("K", " 17 ", 9),
            17,
            "surrounding whitespace tolerated"
        );
        assert_eq!(parse_quota("K", &u64::MAX.to_string(), 9), u64::MAX);
    }

    #[test]
    fn malformed_values_fall_back_to_the_default() {
        for raw in [
            "",
            "abc",
            "-1",
            "1.5",
            "4O96",
            "0x10",
            "18446744073709551616",
        ] {
            assert_eq!(parse_quota("K", raw, 42), 42, "raw = {raw:?}");
        }
    }

    #[test]
    fn labels_match_case_insensitively_with_whitespace() {
        let allowed = ["f64", "rfft"];
        assert_eq!(parse_label("K", "rfft", "f64", &allowed), "rfft");
        assert_eq!(parse_label("K", " RFFT ", "f64", &allowed), "rfft");
        assert_eq!(parse_label("K", "F64", "f64", &allowed), "f64");
    }

    #[test]
    fn unrecognized_labels_fall_back_to_the_default() {
        let allowed = ["f64", "rfft"];
        for raw in ["", "f16", "f32", "real", "rfft32", "f 32"] {
            assert_eq!(
                parse_label("K", raw, "f64", &allowed),
                "f64",
                "raw = {raw:?}"
            );
        }
    }

    #[test]
    fn positive_thread_counts_pass_through() {
        assert_eq!(parse_threads("K", "1"), Some(1));
        assert_eq!(parse_threads("K", " 8 "), Some(8), "whitespace tolerated");
    }

    #[test]
    fn zero_and_malformed_thread_counts_mean_automatic() {
        // 0 is the documented "automatic" value (the --threads contract);
        // malformed values warn and resolve the same way.
        for raw in ["0", "", "many", "-2", "1.5", "4O96"] {
            assert_eq!(parse_threads("K", raw), None, "raw = {raw:?}");
        }
    }

    #[test]
    fn thread_default_wins_when_env_unset() {
        // The test environment never sets this probe variable; reading
        // it mutates nothing, so the resolution order is safe to assert.
        let var = "UWB_ENVKNOB_TEST_THREADS_UNSET";
        if std::env::var(var).is_err() {
            assert_eq!(threads_from_named_env(var, 3), 3);
            assert!(threads_from_named_env(var, 0) >= 1, "automatic >= 1");
        }
    }
}
