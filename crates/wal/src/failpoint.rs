//! Fault injection for the durability and replication paths.
//!
//! A *failpoint* is a named site in production code where a test (or an
//! operator armed with `--failpoints` / `REACTDB_FAILPOINTS`) can inject a
//! failure: an injected I/O error, or a stall of a configured duration.
//! The chaos suite uses them to drive checkpoint-truncation storms and
//! replication stream faults through the exact code paths a real race
//! would take.
//!
//! Design constraints, in order:
//!
//! * **Zero cost when disarmed.** The hot path is a single relaxed load of
//!   one static `AtomicBool`; no lock, no map lookup, no allocation. Only
//!   a process that armed at least one failpoint ever pays more.
//! * **No new dependencies.** The registry is a `Mutex<Vec<_>>` behind a
//!   `OnceLock`; specs parse from a plain string.
//! * **Deterministic budgets.** A spec may cap how many times a point
//!   fires (`name=err:2` fires twice, then goes quiet), so a test can
//!   inject exactly one truncation race and then let the system heal.
//!
//! Spec grammar (comma-separated, whitespace ignored):
//!
//! ```text
//! ship-mid-file=err            err every time the point is passed
//! truncate-under-cursor=err:1  err once, then disarmed
//! ship-kill=stall:50           stall 50 ms every pass
//! ack-drop=err:3               (ack-drop treats err as "drop the ack")
//! wal-sync@mydir=stall:500:1   stall one group commit of log dir "mydir"
//! ```
//!
//! Arming merges into the existing registry; [`clear`] disarms everything
//! (tests run with `arm` + `clear` pairs; the env var is read once at
//! first use).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Fast-path switch: false until the first point is armed. Never reset to
/// false by [`clear`] — a once-armed process keeps paying the (tiny) slow
/// path, which keeps the fast path a single relaxed load with no races
/// against concurrent arming.
static ARMED: AtomicBool = AtomicBool::new(false);

/// Environment variable read (once) for process-level arming.
pub const ENV_VAR: &str = "REACTDB_FAILPOINTS";

/// What an armed failpoint does when passed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FpAction {
    /// Fail the site: the caller injects its site-specific error (an I/O
    /// error on ship paths, a dropped ack on the ack path).
    Err,
    /// Stall the site for the given duration, then continue normally.
    Stall(Duration),
}

#[derive(Debug)]
struct FpEntry {
    name: String,
    action: FpAction,
    /// Remaining fires; `None` = unlimited.
    budget: Option<u64>,
    /// Times this point actually fired (survives budget exhaustion).
    hits: u64,
}

fn registry() -> &'static Mutex<Vec<FpEntry>> {
    static REGISTRY: OnceLock<Mutex<Vec<FpEntry>>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let mut entries = Vec::new();
        if let Ok(spec) = std::env::var(ENV_VAR) {
            match parse_spec(&spec) {
                Ok(parsed) => entries = parsed,
                Err(e) => eprintln!("ignoring malformed {ENV_VAR}: {e}"),
            }
        }
        if !entries.is_empty() {
            ARMED.store(true, Ordering::Release);
        }
        Mutex::new(entries)
    })
}

fn parse_one(clause: &str) -> Result<FpEntry, String> {
    let (name, rhs) = clause
        .split_once('=')
        .ok_or_else(|| format!("clause {clause:?} lacks '='"))?;
    let name = name.trim();
    if name.is_empty() {
        return Err(format!("clause {clause:?} has an empty name"));
    }
    let mut parts = rhs.trim().split(':');
    let kind = parts.next().unwrap_or("");
    let (action, budget) = match kind {
        "err" => {
            let budget = match parts.next() {
                None => None,
                Some(n) => Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("budget {n:?} in {clause:?} is not a number"))?,
                ),
            };
            (FpAction::Err, budget)
        }
        "stall" => {
            let ms: u64 = parts
                .next()
                .ok_or_else(|| format!("stall in {clause:?} needs a duration: stall:MS"))?
                .parse()
                .map_err(|_| format!("stall duration in {clause:?} is not a number"))?;
            let budget = match parts.next() {
                None => None,
                Some(n) => Some(
                    n.parse::<u64>()
                        .map_err(|_| format!("budget {n:?} in {clause:?} is not a number"))?,
                ),
            };
            (FpAction::Stall(Duration::from_millis(ms)), budget)
        }
        other => return Err(format!("unknown action {other:?} in {clause:?}")),
    };
    if parts.next().is_some() {
        return Err(format!("trailing fields in {clause:?}"));
    }
    Ok(FpEntry {
        name: name.to_string(),
        action,
        budget,
        hits: 0,
    })
}

fn parse_spec(spec: &str) -> Result<Vec<FpEntry>, String> {
    spec.split(',')
        .map(str::trim)
        .filter(|c| !c.is_empty())
        .map(parse_one)
        .collect()
}

/// Arms failpoints from a spec string (see the module doc for the
/// grammar). Replaces any existing entry of the same name; other entries
/// survive. Errors on a malformed spec without changing anything.
pub fn arm(spec: &str) -> Result<(), String> {
    let parsed = parse_spec(spec)?;
    if parsed.is_empty() {
        return Ok(());
    }
    let mut entries = registry().lock().unwrap();
    for entry in parsed {
        entries.retain(|e| e.name != entry.name);
        entries.push(entry);
    }
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint and zeroes the hit counters.
pub fn clear() {
    registry().lock().unwrap().clear();
}

/// The injection site: returns what the armed failpoint `name` wants, or
/// `None` (the overwhelmingly common case — one relaxed atomic load).
/// A budgeted point past its budget returns `None` but keeps its hit
/// count. A `Stall` is slept *here*, then reported, so call sites treat
/// any `Some(FpAction::Stall)` as "already stalled, continue".
pub fn fire(name: &str) -> Option<FpAction> {
    fire_entry(|entry| entry == name)
}

/// Like [`fire`], but the site also offers a `scope` (e.g. the log
/// directory name): an entry armed as `name@scope` matches only that
/// site instance, an entry armed as the bare `name` matches every
/// instance. Scoped arming lets concurrently running tests inject into
/// *their* cursor without tripping anyone else's.
pub fn fire_scoped(name: &str, scope: &str) -> Option<FpAction> {
    fire_entry(|entry| {
        entry == name
            || entry
                .strip_prefix(name)
                .and_then(|rest| rest.strip_prefix('@'))
                .is_some_and(|s| s == scope)
    })
}

fn fire_entry(matches: impl Fn(&str) -> bool) -> Option<FpAction> {
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let action = {
        let mut entries = registry().lock().unwrap();
        let entry = entries.iter_mut().find(|e| matches(&e.name))?;
        match entry.budget {
            Some(0) => return None,
            Some(ref mut left) => *left -= 1,
            None => {}
        }
        entry.hits += 1;
        entry.action
    };
    if let FpAction::Stall(pause) = action {
        std::thread::sleep(pause);
    }
    Some(action)
}

/// Convenience for I/O sites: `Err` fires as an injected `io::Error`
/// naming the point, a stall just delays. Call as
/// `failpoint::check("name")?;`.
pub fn check(name: &str) -> std::io::Result<()> {
    to_io(name, fire(name))
}

/// [`check`] with a site scope (see [`fire_scoped`]).
pub fn check_scoped(name: &str, scope: &str) -> std::io::Result<()> {
    to_io(name, fire_scoped(name, scope))
}

fn to_io(name: &str, fired: Option<FpAction>) -> std::io::Result<()> {
    match fired {
        Some(FpAction::Err) => Err(std::io::Error::other(format!(
            "failpoint {name} injected an error"
        ))),
        Some(FpAction::Stall(_)) | None => Ok(()),
    }
}

/// Times the failpoint `name` has fired (for test assertions). Zero for
/// unknown names.
pub fn hits(name: &str) -> u64 {
    registry()
        .lock()
        .unwrap()
        .iter()
        .find(|e| e.name == name)
        .map_or(0, |e| e.hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests use distinct point
    // names and never rely on global emptiness.

    #[test]
    fn disarmed_points_fire_nothing() {
        assert_eq!(fire("fp-test-never-armed"), None);
        assert!(check("fp-test-never-armed").is_ok());
        assert_eq!(hits("fp-test-never-armed"), 0);
    }

    #[test]
    fn err_budget_counts_down_and_hits_count_up() {
        arm("fp-test-budget=err:2").unwrap();
        assert_eq!(fire("fp-test-budget"), Some(FpAction::Err));
        assert!(check("fp-test-budget").is_err());
        assert_eq!(fire("fp-test-budget"), None, "budget of 2 is spent");
        assert_eq!(hits("fp-test-budget"), 2);
    }

    #[test]
    fn stall_sleeps_then_continues() {
        arm("fp-test-stall=stall:20:1").unwrap();
        let start = std::time::Instant::now();
        assert!(check("fp-test-stall").is_ok(), "a stall is not an error");
        assert!(start.elapsed() >= Duration::from_millis(20));
        assert_eq!(hits("fp-test-stall"), 1);
    }

    #[test]
    fn rearming_replaces_only_the_named_point() {
        arm("fp-test-a=err:1, fp-test-b=err").unwrap();
        assert_eq!(fire("fp-test-a"), Some(FpAction::Err));
        arm("fp-test-a=err:1").unwrap(); // fresh budget
        assert_eq!(fire("fp-test-a"), Some(FpAction::Err));
        assert_eq!(fire("fp-test-b"), Some(FpAction::Err), "b untouched");
    }

    #[test]
    fn scoped_entries_hit_only_their_scope() {
        arm("fp-test-scoped@dir-1=err").unwrap();
        assert_eq!(fire_scoped("fp-test-scoped", "dir-2"), None);
        assert_eq!(fire("fp-test-scoped"), None, "bare fire ignores scoped");
        assert_eq!(fire_scoped("fp-test-scoped", "dir-1"), Some(FpAction::Err));
        // A bare entry matches every scope.
        arm("fp-test-global=err").unwrap();
        assert_eq!(
            fire_scoped("fp-test-global", "anywhere"),
            Some(FpAction::Err)
        );
    }

    #[test]
    fn malformed_specs_are_rejected_whole() {
        assert!(arm("no-equals").is_err());
        assert!(arm("x=warp").is_err());
        assert!(arm("x=stall").is_err());
        assert!(arm("x=err:many").is_err());
        assert!(arm("x=err:1:2").is_err());
        assert!(arm("=err").is_err());
        assert!(arm("").is_ok(), "an empty spec arms nothing");
    }
}
