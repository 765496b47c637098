//! Fault injection for the persistence I/O layer.
//!
//! Every durable step the container writers take — buffered writes, flushes,
//! `fsync` of files and parent directories, `set_len`, `msync` of mapped
//! builders and the final atomic rename — is routed through the helpers in
//! this module instead of calling `std::fs`/`std::io` directly.  When no
//! fault plan is armed the helpers compile down to one relaxed atomic load
//! on top of the real operation; when a plan is armed, each step first
//! consults the plan, which may fail it, short-write it, or delay it.
//!
//! That turns "what happens if the process dies between the header patch and
//! the fsync?" from a thought experiment into a test: the crash-matrix suite
//! (`tests/crash_matrix.rs`) counts the steps of a successful build, then
//! re-runs the build failing at every step in turn and asserts the on-disk
//! state is always either the intact previous artifact or no artifact —
//! never a half-visible file, and never a panic.
//!
//! Arming is programmatic ([`arm`]/[`disarm`], used by the test harness) or
//! environment-driven: `M3_FAULTS=<kind>:<op>:<step>[:<ms>]` (for example
//! `M3_FAULTS=fail:fsync:0` fails the first fsync of the process,
//! `M3_FAULTS=short:write:3` short-writes the fourth write,
//! `M3_FAULTS=delay:any:0:50` delays every step by 50 ms) arms a plan at the
//! first injected operation of the process.
//!
//! A programmatic plan is scoped to a path prefix, typically a test's
//! temporary directory: it counts, logs and fails only the steps whose path
//! lies under that prefix.  Plans with different scopes stay armed side by
//! side, so tests running concurrently in one process never see each
//! other's faults.  The `M3_FAULTS` plan is unscoped and sees every step
//! that no scoped plan claims.

use std::fs::File;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, Once, PoisonError};
use std::time::Duration;

/// The class of durable I/O step being performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// A buffered or direct write of payload bytes.
    Write,
    /// A `flush` of buffered writes into the OS.
    Flush,
    /// An `fsync`/`sync_all` of a file.
    SyncFile,
    /// An `fsync` of a parent directory (making a rename durable).
    SyncDir,
    /// A `set_len` pre-sizing a file.
    SetLen,
    /// An `msync` of a mapped builder.
    FlushMap,
    /// The atomic rename publishing a finished artifact.
    Rename,
}

impl FaultOp {
    /// Short lowercase name, as used in the `M3_FAULTS` spec.
    pub fn name(self) -> &'static str {
        match self {
            FaultOp::Write => "write",
            FaultOp::Flush => "flush",
            FaultOp::SyncFile => "fsync",
            FaultOp::SyncDir => "fsync_dir",
            FaultOp::SetLen => "set_len",
            FaultOp::FlushMap => "msync",
            FaultOp::Rename => "rename",
        }
    }

    fn parse(s: &str) -> Option<Option<Self>> {
        Some(match s {
            "any" => None,
            "write" => Some(FaultOp::Write),
            "flush" => Some(FaultOp::Flush),
            "fsync" => Some(FaultOp::SyncFile),
            "fsync_dir" => Some(FaultOp::SyncDir),
            "set_len" => Some(FaultOp::SetLen),
            "msync" => Some(FaultOp::FlushMap),
            "rename" => Some(FaultOp::Rename),
            _ => return None,
        })
    }
}

/// What the armed plan does to the step it triggers on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The step returns an injected `io::Error` without running.
    Fail,
    /// A write persists only a prefix of its buffer, then errors — a torn
    /// write.  Non-write steps treat this as [`FaultKind::Fail`].
    ShortWrite,
    /// The step runs normally after sleeping — for timeout testing.
    Delay(Duration),
}

/// An armed fault plan: trigger [`FaultPlan::kind`] at the
/// [`FaultPlan::trigger_at`]-th matching step (0-based).
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Which matching step (0-based) the fault fires on; `None` never fires,
    /// which turns the plan into a pure step counter.
    pub trigger_at: Option<u64>,
    /// What happens at the triggering step.
    pub kind: FaultKind,
    /// Restrict matching to one operation class (`None` matches every
    /// class).
    pub op: Option<FaultOp>,
}

impl FaultPlan {
    /// A plan that never fires — used to count and record the steps of a
    /// successful operation.
    pub fn count_only() -> Self {
        Self {
            trigger_at: None,
            kind: FaultKind::Fail,
            op: None,
        }
    }

    /// Fail the `step`-th step (0-based) of class `op` (`None` = any).
    pub fn fail_at(step: u64, op: Option<FaultOp>) -> Self {
        Self {
            trigger_at: Some(step),
            kind: FaultKind::Fail,
            op,
        }
    }

    /// Short-write the `step`-th matching write (torn write then error).
    pub fn short_write_at(step: u64) -> Self {
        Self {
            trigger_at: Some(step),
            kind: FaultKind::ShortWrite,
            op: Some(FaultOp::Write),
        }
    }

    /// Parse an `M3_FAULTS` spec: `<kind>:<op>:<step>[:<ms>]`.
    pub fn parse(spec: &str) -> Option<Self> {
        let mut parts = spec.split(':');
        let kind = parts.next()?;
        let op = FaultOp::parse(parts.next()?)?;
        let step: u64 = parts.next()?.parse().ok()?;
        let kind = match kind {
            "fail" => FaultKind::Fail,
            "short" => FaultKind::ShortWrite,
            "delay" => FaultKind::Delay(Duration::from_millis(
                parts.next().unwrap_or("10").parse().ok()?,
            )),
            _ => return None,
        };
        Some(Self {
            trigger_at: Some(step),
            kind,
            op,
        })
    }
}

/// One recorded step of an armed run.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// The operation class.
    pub op: FaultOp,
    /// The file (or directory) the step acted on.
    pub path: PathBuf,
}

/// What [`disarm`] reports about the run since [`arm`].
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// Steps that matched the plan's op filter.
    pub matching_steps: u64,
    /// Whether the plan's trigger fired.
    pub triggered: bool,
    /// Every step observed (all classes), in order.
    pub log: Vec<StepRecord>,
}

struct State {
    /// Steps under this prefix belong to the plan; `None` (the `M3_FAULTS`
    /// plan) takes every step no scoped plan claims.
    scope: Option<PathBuf>,
    plan: FaultPlan,
    matched: u64,
    triggered: bool,
    log: Vec<StepRecord>,
}

impl State {
    fn new(scope: Option<PathBuf>, plan: FaultPlan) -> Self {
        Self {
            scope,
            plan,
            matched: 0,
            triggered: false,
            log: Vec::new(),
        }
    }
}

static ACTIVE: AtomicBool = AtomicBool::new(false);
static ARMED: Mutex<Vec<State>> = Mutex::new(Vec::new());
static ENV_INIT: Once = Once::new();

fn lock_armed() -> std::sync::MutexGuard<'static, Vec<State>> {
    // A panicking holder cannot leave the counters in a harmful state;
    // recover the guard instead of cascading the poison.
    ARMED.lock().unwrap_or_else(PoisonError::into_inner)
}

fn install(armed: &mut Vec<State>, state: State) {
    armed.retain(|s| s.scope != state.scope);
    armed.push(state);
    ACTIVE.store(true, Ordering::Release);
}

/// Arm `plan` for the steps whose path lies under `scope`, resetting its
/// step counter and log.  Replaces a plan armed earlier with the same
/// scope; plans with other scopes are untouched.
pub fn arm(scope: &Path, plan: FaultPlan) {
    install(
        &mut lock_armed(),
        State::new(Some(scope.to_path_buf()), plan),
    );
}

/// Disarm the plan armed for `scope` and report what it observed.
pub fn disarm(scope: &Path) -> FaultReport {
    let mut armed = lock_armed();
    let state = armed
        .iter()
        .position(|s| s.scope.as_deref() == Some(scope))
        .map(|i| armed.swap_remove(i));
    ACTIVE.store(!armed.is_empty(), Ordering::Release);
    match state {
        Some(s) => FaultReport {
            matching_steps: s.matched,
            triggered: s.triggered,
            log: s.log,
        },
        None => FaultReport {
            matching_steps: 0,
            triggered: false,
            log: Vec::new(),
        },
    }
}

/// `true` when a fault plan is currently armed.
pub fn active() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Acquire)
}

fn init_from_env() {
    ENV_INIT.call_once(|| {
        if let Some(spec) = std::env::var_os("M3_FAULTS") {
            if let Some(plan) = spec.to_str().and_then(FaultPlan::parse) {
                install(&mut lock_armed(), State::new(None, plan));
            }
        }
    });
}

/// The decision the armed plan makes for one step.
enum Decision {
    Proceed,
    Fail,
    Short,
}

fn injected_error(op: FaultOp, path: &Path) -> io::Error {
    io::Error::other(format!(
        "injected fault: {} on {}",
        op.name(),
        path.display()
    ))
}

/// Record a step and decide its fate.  Cheap no-op unless a plan is armed.
fn decide(op: FaultOp, path: &Path) -> Decision {
    if !active() {
        return Decision::Proceed;
    }
    let mut guard = lock_armed();
    // The deepest scope containing `path` owns the step; the unscoped plan
    // (depth 0) takes what no scoped plan claims.
    let owner = guard
        .iter_mut()
        .filter(|s| {
            s.scope
                .as_deref()
                .is_none_or(|scope| path.starts_with(scope))
        })
        .max_by_key(|s| {
            s.scope
                .as_deref()
                .map_or(0, |scope| scope.components().count() + 1)
        });
    let Some(state) = owner else {
        return Decision::Proceed;
    };
    state.log.push(StepRecord {
        op,
        path: path.to_path_buf(),
    });
    if state.plan.op.is_some_and(|want| want != op) {
        return Decision::Proceed;
    }
    let index = state.matched;
    state.matched += 1;
    if state.plan.trigger_at != Some(index) {
        return Decision::Proceed;
    }
    state.triggered = true;
    match state.plan.kind {
        FaultKind::Fail => Decision::Fail,
        FaultKind::ShortWrite => {
            if op == FaultOp::Write {
                Decision::Short
            } else {
                Decision::Fail
            }
        }
        FaultKind::Delay(d) => {
            drop(guard);
            std::thread::sleep(d);
            Decision::Proceed
        }
    }
}

/// Write all of `buf` through the fault layer.
///
/// # Errors
/// Propagates the underlying write error, or the injected one.  A
/// [`FaultKind::ShortWrite`] persists roughly half the buffer first, so the
/// torn prefix is really on disk (or in the stream) when the error surfaces.
pub fn write_all<W: Write>(writer: &mut W, buf: &[u8], path: &Path) -> io::Result<()> {
    match decide(FaultOp::Write, path) {
        Decision::Proceed => writer.write_all(buf),
        Decision::Fail => Err(injected_error(FaultOp::Write, path)),
        Decision::Short => {
            writer.write_all(&buf[..buf.len() / 2])?;
            Err(injected_error(FaultOp::Write, path))
        }
    }
}

/// Flush `writer` through the fault layer.
///
/// # Errors
/// Propagates the underlying flush error, or the injected one.
pub fn flush<W: Write>(writer: &mut W, path: &Path) -> io::Result<()> {
    match decide(FaultOp::Flush, path) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::Flush, path)),
        Decision::Proceed => writer.flush(),
    }
}

/// `fsync` `file` through the fault layer.
///
/// # Errors
/// Propagates the underlying sync error, or the injected one.
pub fn sync_file(file: &File, path: &Path) -> io::Result<()> {
    match decide(FaultOp::SyncFile, path) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::SyncFile, path)),
        Decision::Proceed => file.sync_all(),
    }
}

/// `set_len` on `file` through the fault layer.
///
/// # Errors
/// Propagates the underlying error, or the injected one.
pub fn set_len(file: &File, len: u64, path: &Path) -> io::Result<()> {
    match decide(FaultOp::SetLen, path) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::SetLen, path)),
        Decision::Proceed => file.set_len(len),
    }
}

/// `msync` a mapped builder through the fault layer.
///
/// # Errors
/// Propagates the underlying flush error, or the injected one.
pub fn flush_map(map: &memmap2::MmapMut, path: &Path) -> io::Result<()> {
    match decide(FaultOp::FlushMap, path) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::FlushMap, path)),
        Decision::Proceed => map.flush(),
    }
}

/// `fsync` the directory containing `dir` entries — what makes a rename (or
/// a freshly created file) durable across a crash.  Best-effort no-op on
/// platforms where directories cannot be opened.
///
/// # Errors
/// Propagates the underlying open/sync error, or the injected one.
pub fn sync_dir(dir: &Path) -> io::Result<()> {
    match decide(FaultOp::SyncDir, dir) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::SyncDir, dir)),
        Decision::Proceed => {
            #[cfg(unix)]
            {
                File::open(dir)?.sync_all()
            }
            #[cfg(not(unix))]
            {
                Ok(())
            }
        }
    }
}

/// Atomically rename `from` to `to` through the fault layer.
///
/// # Errors
/// Propagates the underlying rename error, or the injected one.
pub fn rename(from: &Path, to: &Path) -> io::Result<()> {
    match decide(FaultOp::Rename, from) {
        Decision::Fail | Decision::Short => Err(injected_error(FaultOp::Rename, from)),
        Decision::Proceed => std::fs::rename(from, to),
    }
}

/// The temporary sibling a builder writes to before renaming into `path`:
/// same directory (so the rename cannot cross filesystems), with `.tmp`
/// appended to the file name.
pub fn tmp_sibling(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tmp_sibling_stays_in_the_same_directory() {
        let t = tmp_sibling(Path::new("/a/b/model.m3m"));
        assert_eq!(t, Path::new("/a/b/model.m3m.tmp"));
    }

    #[test]
    fn spec_parsing() {
        let p = FaultPlan::parse("fail:fsync:2").unwrap();
        assert_eq!(p.trigger_at, Some(2));
        assert_eq!(p.op, Some(FaultOp::SyncFile));
        assert_eq!(p.kind, FaultKind::Fail);

        let p = FaultPlan::parse("short:write:0").unwrap();
        assert_eq!(p.kind, FaultKind::ShortWrite);

        let p = FaultPlan::parse("delay:any:1:25").unwrap();
        assert_eq!(p.op, None);
        assert_eq!(p.kind, FaultKind::Delay(Duration::from_millis(25)));

        assert!(FaultPlan::parse("explode:write:0").is_none());
        assert!(FaultPlan::parse("fail:warp:0").is_none());
        assert!(FaultPlan::parse("fail:write").is_none());
    }

    #[test]
    fn inactive_layer_passes_operations_through() {
        let mut out = Vec::new();
        write_all(&mut out, b"hello", Path::new("unarmed/x")).unwrap();
        flush(&mut out, Path::new("unarmed/x")).unwrap();
        assert_eq!(out, b"hello");
    }

    #[test]
    fn armed_plan_counts_fails_and_short_writes() {
        let scope = Path::new("counted");
        let path = Path::new("counted/victim");

        arm(scope, FaultPlan::count_only());
        let mut out = Vec::new();
        write_all(&mut out, b"abcd", path).unwrap();
        write_all(&mut out, b"efgh", path).unwrap();
        flush(&mut out, path).unwrap();
        let report = disarm(scope);
        assert_eq!(report.matching_steps, 3);
        assert!(!report.triggered);
        assert_eq!(report.log.len(), 3);
        assert_eq!(report.log[2].op, FaultOp::Flush);

        arm(scope, FaultPlan::fail_at(1, Some(FaultOp::Write)));
        let mut out = Vec::new();
        write_all(&mut out, b"abcd", path).unwrap();
        let err = write_all(&mut out, b"efgh", path).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(out, b"abcd");
        assert!(disarm(scope).triggered);

        arm(scope, FaultPlan::short_write_at(0));
        let mut out = Vec::new();
        assert!(write_all(&mut out, b"abcd", path).is_err());
        assert_eq!(out, b"ab", "short write persists a torn prefix");
        assert!(disarm(scope).triggered);
    }

    #[test]
    fn plans_see_only_the_steps_under_their_scope() {
        let (outer, inner) = (Path::new("scoped"), Path::new("scoped/inner"));
        arm(outer, FaultPlan::fail_at(0, None));
        arm(inner, FaultPlan::count_only());
        let mut out = Vec::new();
        // Outside both scopes (a sibling sharing the string prefix, too):
        // neither counted nor failed.
        write_all(&mut out, b"a", Path::new("elsewhere/f")).unwrap();
        write_all(&mut out, b"b", Path::new("scoped-sibling/f")).unwrap();
        // The deeper scope owns its steps.
        write_all(&mut out, b"c", Path::new("scoped/inner/f")).unwrap();
        flush(&mut out, Path::new("scoped/inner/f")).unwrap();
        // The outer plan fails its first step.
        let err = write_all(&mut out, b"d", Path::new("scoped/f")).unwrap_err();
        assert!(err.to_string().contains("injected fault"));
        assert_eq!(out, b"abc");

        let inner_report = disarm(inner);
        assert_eq!(inner_report.matching_steps, 2);
        assert!(inner_report.log.iter().all(|s| s.path.starts_with(inner)));
        let outer_report = disarm(outer);
        assert!(outer_report.triggered);
        assert_eq!(outer_report.matching_steps, 1);
        assert_eq!(disarm(outer).matching_steps, 0, "already disarmed");
    }

    #[test]
    fn delay_plans_proceed_after_sleeping() {
        let scope = Path::new("delayed");
        arm(
            scope,
            FaultPlan {
                trigger_at: Some(0),
                kind: FaultKind::Delay(Duration::from_millis(1)),
                op: None,
            },
        );
        let mut out = Vec::new();
        write_all(&mut out, b"zz", Path::new("delayed/d")).unwrap();
        assert_eq!(out, b"zz");
        assert!(disarm(scope).triggered);
    }
}
