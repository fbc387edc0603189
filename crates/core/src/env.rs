//! The evaluation environment: what the OS substrate exposes to the
//! firewall.
//!
//! The kernel prototype reads process state (user stack, `task_struct`
//! extensions) and resource state (inodes, labels) directly; here the OS
//! simulator implements [`EvalEnv`] on a view borrowing its internals.
//! Everything the rule language can match flows through this trait, which
//! keeps `pf-core` independent of the substrate's data structures.

use std::sync::Arc;

use pf_mac::MacPolicy;
use pf_types::{Gid, Mode, Pid, ProgramId, ResourceId, SecId, SignalNum, Uid};

/// Resource context for the object of the current operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectInfo {
    /// The object's MAC label.
    pub sid: SecId,
    /// The resource identifier (device+inode or signal).
    pub resource: ResourceId,
    /// DAC owner.
    pub owner: Uid,
    /// DAC group.
    pub group: Gid,
    /// Permission bits.
    pub mode: Mode,
}

/// Signal-delivery context for `PROCESS_SIGNAL_DELIVERY` operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignalInfo {
    /// The signal being delivered.
    pub signal: SignalNum,
    /// Whether the receiving process installed a handler for it.
    pub has_handler: bool,
    /// `SIGKILL`/`SIGSTOP` cannot be blocked or dropped.
    pub unblockable: bool,
    /// Whether the receiver is already executing a signal handler.
    pub in_handler: bool,
}

/// Why a context fetch *failed* — as opposed to the context being
/// benignly absent.
///
/// Section 4.4 of the paper notes that context collection "may fail";
/// the engine distinguishes the two outcomes because they demand
/// different policy. A process with no signal info on an `open(2)` is
/// *Missing* context (nothing to match — today's semantics). A stack
/// the unwinder could not walk, or an inode the VFS raced away, is
/// *Failed* context: the fetch was attempted and errored, exactly the
/// window an adversary aims for, so rules may elect to fail closed
/// (`--ctx-missing drop`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CtxError {
    /// The user-stack unwinder aborted (corrupt frames, depth cap).
    UnwindFault,
    /// The object's metadata could not be read (VFS race, stale inode).
    ObjectFault,
    /// The symlink-target owner lookup raced with a rename/unlink.
    LinkRace,
    /// The per-process STATE dictionary was lost or unreadable.
    StateLoss,
    /// The virtual clock could not be read — throttle targets depend on
    /// it, and a stopped clock would otherwise let every access through
    /// a rate limit.
    ClockFault,
    /// The subject's origin (taint) label could not be read. Origin
    /// gates post-compromise containment rules, so a lost origin must
    /// not silently read as "untainted".
    OriginFault,
}

impl CtxError {
    /// Stable lowercase name, for logs and metric labels.
    pub fn name(self) -> &'static str {
        match self {
            CtxError::UnwindFault => "unwind_fault",
            CtxError::ObjectFault => "object_fault",
            CtxError::LinkRace => "link_race",
            CtxError::StateLoss => "state_loss",
            CtxError::ClockFault => "clock_fault",
            CtxError::OriginFault => "origin_fault",
        }
    }
}

/// The tri-state result of a context fetch.
///
/// `Missing` is the benign absence the legacy `Option` API expressed as
/// `None` — a selector over missing context simply does not match.
/// `Failed` means the fetch was attempted and errored; what happens next
/// is governed by the matching rule's `--ctx-missing` policy (see
/// `docs/RULES.md`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched<T> {
    /// The fetch succeeded.
    Value(T),
    /// The context is benignly absent for this operation.
    Missing,
    /// The fetch was attempted and errored.
    Failed(CtxError),
}

impl<T> Fetched<T> {
    /// Lifts a legacy `Option` fetch: `None` is benign absence.
    pub fn from_option(v: Option<T>) -> Self {
        match v {
            Some(v) => Fetched::Value(v),
            None => Fetched::Missing,
        }
    }

    /// Collapses back to the legacy `Option` view (`Failed` → `None`).
    pub fn ok(self) -> Option<T> {
        match self {
            Fetched::Value(v) => Some(v),
            Fetched::Missing | Fetched::Failed(_) => None,
        }
    }

    /// Maps the carried value, preserving `Missing`/`Failed`.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Fetched<U> {
        match self {
            Fetched::Value(v) => Fetched::Value(f(v)),
            Fetched::Missing => Fetched::Missing,
            Fetched::Failed(e) => Fetched::Failed(e),
        }
    }

    /// `true` for `Missing`.
    pub fn is_missing(&self) -> bool {
        matches!(self, Fetched::Missing)
    }

    /// The fetch error, when the fetch failed.
    pub fn err(&self) -> Option<CtxError> {
        match self {
            Fetched::Failed(e) => Some(*e),
            _ => None,
        }
    }

    /// `true` for `Failed`.
    pub fn is_failed(&self) -> bool {
        matches!(self, Fetched::Failed(_))
    }
}

/// The firewall's window into the process and the resource.
///
/// Implementations borrow kernel state for the duration of one
/// authorization hook. Methods that retrieve process-internal state
/// (`unwind_entrypoint`) may fail benignly: per Section 4.4 of the paper,
/// malformed process state aborts context evaluation and merely costs the
/// process its own protection.
///
/// The `try_*` methods are the fail-safe contract: they report the
/// tri-state [`Fetched`] so the engine can tell benign absence from a
/// fetch error. Their defaults wrap the legacy `Option` methods (every
/// `None` maps to `Missing`), so existing substrates keep today's
/// fail-open behaviour unchanged; substrates (or fault injectors) that
/// can observe real fetch errors override them to return
/// [`Fetched::Failed`].
pub trait EvalEnv {
    /// The subject (process) MAC label.
    fn subject_sid(&self) -> SecId;

    /// The process's main program binary.
    fn program(&self) -> ProgramId;

    /// The calling process id.
    fn pid(&self) -> Pid;

    /// Unwinds the user stack to the innermost frame: the entrypoint.
    ///
    /// Returns `None` for malformed stacks (frame limit exceeded, invalid
    /// pointers) — the sanitized failure path.
    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)>;

    /// The object of the operation, when there is one.
    fn object(&self) -> Option<ObjectInfo>;

    /// For link-traversal operations: the owner of the symlink *target*.
    fn link_target_owner(&mut self) -> Option<Uid>;

    /// Syscall argument `idx`; argument 0 is the syscall number.
    fn syscall_arg(&self, idx: usize) -> u64;

    /// Signal-delivery context (only on signal operations).
    fn signal(&self) -> Option<SignalInfo>;

    /// The MAC policy (for adversary accessibility and label names).
    fn mac(&self) -> &MacPolicy;

    /// Resolves a program id to its path for a LOG record.
    ///
    /// LOG capture calls this on the hook path and keeps the handle
    /// until a collector drains the record, so an interner-backed
    /// substrate should return its shared copy
    /// ([`pf_types::Interner::resolve_shared`]): a reference-count bump,
    /// no allocation. The string must keep naming `id` after the hook
    /// returns, which an append-only interner guarantees.
    fn program_name(&self, id: ProgramId) -> Arc<str>;

    /// Reads a per-process STATE-dictionary entry.
    fn state_get(&self, key: u64) -> Option<u64>;

    /// Writes a per-process STATE-dictionary entry.
    fn state_set(&mut self, key: u64, value: u64);

    /// Removes a per-process STATE-dictionary entry.
    fn state_unset(&mut self, key: u64);

    /// Reads the per-syscall context cache (cleared at syscall entry).
    fn cache_get(&self, slot: u8) -> Option<u64>;

    /// Writes the per-syscall context cache.
    fn cache_put(&mut self, slot: u8, value: u64);

    /// A logical timestamp for log records.
    fn now(&self) -> u64;

    /// The innermost interpreter-level backtrace frame (script path and
    /// line), for tasks running PHP/Python/Bash scripts.
    ///
    /// The paper adapts each interpreter's backtrace code to run in the
    /// kernel (Section 4.4); substrates without interpreter support may
    /// keep the default `None`.
    fn interp_frame(&self) -> Option<(String, u32)> {
        None
    }

    /// Tri-state entrypoint fetch. Default: legacy `None` is `Missing`.
    fn try_unwind_entrypoint(&mut self) -> Fetched<(ProgramId, u64)> {
        Fetched::from_option(self.unwind_entrypoint())
    }

    /// Tri-state object fetch. Default: legacy `None` is `Missing`.
    fn try_object(&self) -> Fetched<ObjectInfo> {
        Fetched::from_option(self.object())
    }

    /// Tri-state symlink-target-owner fetch. Default: legacy `None` is
    /// `Missing`.
    fn try_link_target_owner(&mut self) -> Fetched<Uid> {
        Fetched::from_option(self.link_target_owner())
    }

    /// Tri-state signal-context fetch. Default: legacy `None` is
    /// `Missing`.
    fn try_signal(&self) -> Fetched<SignalInfo> {
        Fetched::from_option(self.signal())
    }

    /// Tri-state STATE-dictionary read. Default: legacy `None` is
    /// `Missing` (the key was never set).
    fn try_state_get(&self, key: u64) -> Fetched<u64> {
        Fetched::from_option(self.state_get(key))
    }

    /// Tri-state virtual-clock read, consumed by RATELIMIT/QUOTA
    /// targets. Default: the infallible [`EvalEnv::now`]. Fault-injecting
    /// wrappers override this to model a clock the hook cannot read.
    fn try_now(&self) -> Fetched<u64> {
        Fetched::Value(self.now())
    }

    /// The subject's monotone origin (taint) level, per the OAMAC
    /// adversary model (see `pf_mac::origin`). Substrates that do not
    /// track origin keep the default `None` — origin selectors then see
    /// benign `Missing` context and simply never match.
    fn subject_origin(&self) -> Option<u64> {
        None
    }

    /// Tri-state origin fetch. Default: legacy `None` is `Missing`.
    /// Fault injectors override this to model a lost taint label; the
    /// engine's `--ctx-missing` arbitration then decides (DROP-target
    /// rules fail closed by default, so a lost origin never silently
    /// allows a post-compromise pivot).
    fn try_subject_origin(&mut self) -> Fetched<u64> {
        Fetched::from_option(self.subject_origin())
    }

    /// The adversary-model generation the substrate's MAC policy is at
    /// (see `MacPolicy::adversary_generation`): bumped on policy edits
    /// and on first-time taint widenings. The engine revalidates each
    /// per-task verdict cache against this stamp before every lookup,
    /// so a widening can never replay a pre-widening verdict. The
    /// default reads the policy exposed through [`EvalEnv::mac`]; a
    /// substrate sharing one policy across wrappers need not override.
    fn adversary_generation(&self) -> u64 {
        self.mac().adversary_generation()
    }
}
