//! Fault injection: a registry of named failure points.
//!
//! Crash-safety code is only as trustworthy as the crashes it has been
//! tested against. A *failpoint* is a named hook compiled into
//! production paths (shard commits, atomic writes) that normally does
//! nothing — disarmed, each site costs one `Relaxed` atomic load, the
//! same zero-cost-when-off contract the trace layer keeps.
//! Armed with a rule, the hook can:
//!
//! * **kill** the process on the spot (`std::process::abort`, i.e. an
//!   un-catchable SIGABRT — the in-process stand-in for `kill -9`),
//! * **hang** forever (so an out-of-process harness can deliver a real
//!   SIGKILL while the victim is alive mid-campaign), or
//! * **err** — return an injected `io::Error` for the caller's error
//!   path to handle.
//!
//! Rules are deterministic: `name=action@n` fires on the *n*-th hit of
//! `name` (1-based, one-shot), so "kill after the 3rd shard commit" is
//! reproducible run-to-run. Specs arm either programmatically
//! ([`arm_failpoints`]) or from the `PREFENDER_FAILPOINTS` environment
//! variable ([`arm_failpoints_from_env`]), which the binaries read at
//! startup; several `;`-separated rules may be armed at once.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// Environment variable the binaries read at startup to arm failpoints.
pub const FAILPOINTS_ENV: &str = "PREFENDER_FAILPOINTS";

static FAILPOINTS_ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: Mutex<Vec<Rule>> = Mutex::new(Vec::new());

/// What an armed failpoint does when its hit count comes up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Abort the process immediately (un-catchable, like `kill -9`).
    Kill,
    /// Sleep forever so an external harness can SIGKILL a live process.
    Hang,
    /// Return an injected `io::Error` from the failpoint site.
    Err,
}

#[derive(Debug)]
struct Rule {
    name: String,
    action: FailAction,
    /// Hits remaining before the rule fires; 0 = already fired.
    countdown: u64,
}

fn parse_rule(spec: &str) -> Result<Rule, String> {
    let (name, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("failpoint rule `{spec}` is not `name=action[@n]`"))?;
    if name.is_empty() {
        return Err(format!("failpoint rule `{spec}` has an empty name"));
    }
    let (action_s, count_s) = match rest.split_once('@') {
        Some((a, n)) => (a, Some(n)),
        None => (rest, None),
    };
    let action = match action_s {
        "kill" => FailAction::Kill,
        "hang" => FailAction::Hang,
        "err" => FailAction::Err,
        other => return Err(format!("unknown failpoint action `{other}` (kill|hang|err)")),
    };
    let countdown = match count_s {
        None => 1,
        Some(n) => n
            .parse::<u64>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| format!("failpoint count `{n}` is not a positive integer"))?,
    };
    Ok(Rule { name: name.to_string(), action, countdown })
}

/// Arms failpoints from a spec string: `;`-separated `name=action[@n]`
/// rules, where action is `kill`, `hang` or `err` and `@n` (default 1)
/// fires the rule on the n-th hit of `name`. Replaces any previously
/// armed rules; an empty spec disarms.
pub fn arm_failpoints(spec: &str) -> Result<(), String> {
    let mut rules = Vec::new();
    for part in spec.split(';').map(str::trim).filter(|p| !p.is_empty()) {
        rules.push(parse_rule(part)?);
    }
    let armed = !rules.is_empty();
    *REGISTRY.lock().unwrap() = rules;
    FAILPOINTS_ARMED.store(armed, Ordering::Relaxed);
    Ok(())
}

/// Disarms all failpoints, restoring the zero-cost default.
pub fn disarm_failpoints() {
    REGISTRY.lock().unwrap().clear();
    FAILPOINTS_ARMED.store(false, Ordering::Relaxed);
}

/// Arms failpoints from [`FAILPOINTS_ENV`] if it is set. Returns whether
/// anything was armed; a malformed spec is an error (binaries should
/// refuse to run rather than silently skip the requested fault).
pub fn arm_failpoints_from_env() -> Result<bool, String> {
    match std::env::var(FAILPOINTS_ENV) {
        Ok(spec) if !spec.trim().is_empty() => {
            arm_failpoints(&spec)?;
            Ok(true)
        }
        _ => Ok(false),
    }
}

/// A named failure point. Disarmed (the default) this is one `Relaxed`
/// atomic load. Armed, the matching rule's n-th hit either returns an
/// injected [`io::Error`] (`err`), aborts the process (`kill`), or
/// sleeps forever (`hang`).
#[inline]
pub fn failpoint(name: &str) -> io::Result<()> {
    if !FAILPOINTS_ARMED.load(Ordering::Relaxed) {
        return Ok(());
    }
    fire(name)
}

#[cold]
fn fire(name: &str) -> io::Result<()> {
    let action = {
        let mut registry = REGISTRY.lock().unwrap();
        let mut fired = None;
        for rule in registry.iter_mut().filter(|r| r.name == name) {
            match rule.countdown {
                0 => {} // already fired (one-shot)
                1 => {
                    rule.countdown = 0;
                    fired = Some(rule.action);
                    break;
                }
                _ => {
                    rule.countdown -= 1;
                    break; // counted this hit; not yet
                }
            }
        }
        fired
    };
    match action {
        None => Ok(()),
        Some(FailAction::Err) => {
            Err(io::Error::other(format!("failpoint `{name}`: injected I/O failure")))
        }
        Some(FailAction::Kill) => {
            eprintln!("failpoint `{name}`: aborting process");
            std::process::abort();
        }
        Some(FailAction::Hang) => {
            eprintln!("failpoint `{name}`: hanging (awaiting external kill)");
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
            }
        }
    }
}

/// The one gate for this crate's tests that arm failpoints or pass a
/// failpoint site (`fsio`'s too): the registry is process-global, so two
/// such tests at once would fire or disarm each other's rules. A test
/// that fails while holding the gate must not wedge the others, hence the
/// poison recovery.
#[cfg(test)]
pub(crate) fn test_gate() -> std::sync::MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every test here restores the disarmed default before releasing the
    // gate.

    #[test]
    fn disarmed_is_a_no_op() {
        let _g = test_gate();
        disarm_failpoints();
        for _ in 0..3 {
            assert!(failpoint("anything").is_ok());
        }
    }

    #[test]
    fn err_fires_on_the_nth_hit_once() {
        let _g = test_gate();
        arm_failpoints("io.write=err@3").unwrap();
        assert!(failpoint("io.write").is_ok(), "hit 1 passes");
        assert!(failpoint("other").is_ok(), "unrelated names never fire");
        assert!(failpoint("io.write").is_ok(), "hit 2 passes");
        let err = failpoint("io.write").unwrap_err();
        assert!(err.to_string().contains("failpoint `io.write`"), "{err}");
        assert!(failpoint("io.write").is_ok(), "one-shot: hit 4 passes again");
        disarm_failpoints();
    }

    #[test]
    fn multiple_rules_fire_independently() {
        let _g = test_gate();
        arm_failpoints("a=err; b=err@2").unwrap();
        assert!(failpoint("b").is_ok());
        assert!(failpoint("a").is_err());
        assert!(failpoint("b").is_err());
        disarm_failpoints();
    }

    #[test]
    fn rearming_replaces_rules_and_empty_spec_disarms() {
        let _g = test_gate();
        arm_failpoints("a=err").unwrap();
        arm_failpoints("b=err").unwrap();
        assert!(failpoint("a").is_ok(), "old rules are gone");
        assert!(failpoint("b").is_err());
        arm_failpoints("").unwrap();
        assert!(failpoint("b").is_ok());
        disarm_failpoints();
    }

    #[test]
    fn malformed_specs_are_rejected() {
        let _g = test_gate();
        for bad in ["nameonly", "=err", "a=explode", "a=err@0", "a=err@x", "a=kill@-1"] {
            assert!(arm_failpoints(bad).is_err(), "spec `{bad}` must be rejected");
        }
        // A rejected spec must not leave stale rules armed.
        disarm_failpoints();
    }

    #[test]
    fn kill_and_hang_specs_parse() {
        let _g = test_gate();
        arm_failpoints("shard.commit=kill@7; atomic.fsync=hang").unwrap();
        // Don't hit them (that would abort the test runner) — just check
        // they armed and then disarm.
        assert!(failpoint("unrelated").is_ok());
        disarm_failpoints();
    }
}
