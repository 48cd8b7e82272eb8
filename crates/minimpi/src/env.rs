//! Centralized `DDR_*` environment-variable parsing.
//!
//! Every runtime knob the stack reads from the environment goes through this
//! module, so parsing rules are uniform and a malformed value produces exactly
//! one warning on stderr (per variable, per process) instead of being
//! silently ignored somewhere deep in a hot path.
//!
//! The full knob table lives in the repository README under "Observability".

use std::collections::BTreeSet;
use std::sync::Mutex;
use std::sync::OnceLock;

fn warned() -> &'static Mutex<BTreeSet<&'static str>> {
    static WARNED: OnceLock<Mutex<BTreeSet<&'static str>>> = OnceLock::new();
    WARNED.get_or_init(|| Mutex::new(BTreeSet::new()))
}

fn warn_once(name: &'static str, value: &str, expected: &str) {
    let mut set = warned().lock().unwrap_or_else(|e| e.into_inner());
    if set.insert(name) {
        eprintln!("minimpi: ignoring {name}={value:?}: expected {expected}");
    }
}

/// A boolean flag: `1`/`true`/`yes`/`on` (any case) is true, `0`/`false`/
/// `no`/`off` is false, unset is `None`. Anything else warns once and reads
/// as `None`.
pub fn flag(name: &'static str) -> Option<bool> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().to_ascii_lowercase().as_str() {
        "1" | "true" | "yes" | "on" => Some(true),
        "0" | "false" | "no" | "off" | "" => Some(false),
        _ => {
            warn_once(name, &raw, "a boolean (1/true/yes/on or 0/false/no/off)");
            None
        }
    }
}

/// An unsigned integer. Malformed values warn once and read as `None`.
pub fn u64_var(name: &'static str) -> Option<u64> {
    let raw = std::env::var(name).ok()?;
    match raw.trim().parse::<u64>() {
        Ok(v) => Some(v),
        Err(_) => {
            warn_once(name, &raw, "an unsigned integer");
            None
        }
    }
}

/// A non-empty path-like string (no validation beyond non-emptiness).
pub fn path_var(name: &'static str) -> Option<String> {
    let raw = std::env::var(name).ok()?;
    let trimmed = raw.trim();
    if trimmed.is_empty() {
        warn_once(name, &raw, "a non-empty path");
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env mutation races other tests in this binary; these tests only use
    // variable names nothing else reads.

    #[test]
    fn flag_values() {
        std::env::set_var("DDR_TEST_FLAG_A", "yes");
        assert_eq!(flag("DDR_TEST_FLAG_A"), Some(true));
        std::env::set_var("DDR_TEST_FLAG_A", "OFF");
        assert_eq!(flag("DDR_TEST_FLAG_A"), Some(false));
        assert_eq!(flag("DDR_TEST_FLAG_UNSET"), None);
    }

    #[test]
    fn malformed_warns_once_and_is_ignored() {
        std::env::set_var("DDR_TEST_BAD_INT", "twelve");
        assert_eq!(u64_var("DDR_TEST_BAD_INT"), None);
        assert_eq!(u64_var("DDR_TEST_BAD_INT"), None);
        assert!(warned().lock().unwrap().contains("DDR_TEST_BAD_INT"));
    }
}
