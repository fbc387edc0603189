//! Per-task evaluation sessions.
//!
//! The paper's firewall keeps only *per-process* mutable state on the
//! evaluation path (Section 5.1) — traversal is re-entrant because
//! everything cross-invocation lives in the per-process STATE
//! dictionary and per-syscall cache. [`TaskSession`] is that per-task
//! half of the split engine: each simulated task (or stress-harness
//! thread) owns one, and the shared [`ProcessFirewall`] stays
//! immutable on the hot path.
//!
//! A session holds:
//!
//! * the **pinned snapshot** — an `Arc` to the ruleset generation the
//!   task last observed. The steady-state evaluate path compares the
//!   firewall's lock-free generation counter with the pinned one and
//!   re-loads the snapshot only when a rule edit has been published,
//!   so evaluation under an unchanged ruleset takes **zero locks**
//!   (one relaxed-cost atomic load is the whole synchronization);
//! * the **LOG scratch** — the invocation-local buffer reused across
//!   the task's invocations, so LOG-free hooks never allocate;
//! * the **verdict cache** — the VCACHE memo table (see
//!   [`crate::vcache`]), consulted only when the pinned configuration
//!   enables it and cleared on every re-pin, so cached verdicts never
//!   outlive the snapshot that produced them.
//!
//! [`TaskSession::evaluate`] refreshes the pin first (the task sees
//! rule edits promptly); [`TaskSession::evaluate_pinned`] deliberately
//! does not — it models an invocation already in flight when a hot
//! reload lands, which must complete against the old ruleset. Either
//! way the verdict's [`EvalDecision::generation`] names the snapshot
//! that produced it.

use std::sync::Arc;

use pf_types::LsmOperation;

use crate::engine::{EvalDecision, ProcessFirewall};
use crate::env::EvalEnv;
use crate::log::LogRecord;
use crate::snapshot::RulesetSnapshot;
use crate::vcache::VerdictCache;

/// A task's private handle onto a shared [`ProcessFirewall`].
///
/// `Default` is the unpinned state (the first evaluate pins); `Clone`
/// (used when a simulated task forks) shares the pinned snapshot `Arc`
/// but nothing mutable — the child's verdict cache starts empty (see
/// [`VerdictCache`]'s `Clone`).
#[derive(Debug, Clone)]
pub struct TaskSession {
    snap: Option<Arc<RulesetSnapshot>>,
    /// Identity of the firewall `snap` came from, so a session survives
    /// its kernel swapping in a *different* firewall instance (whose
    /// generation counter is unrelated).
    owner: usize,
    scratch: Vec<LogRecord>,
    /// The VCACHE verdict cache (active only when the pinned config has
    /// `verdict_cache` set). Entries are valid for exactly one pinned
    /// snapshot: every re-pin clears them wholesale, so no verdict
    /// survives a generation bump or a firewall swap.
    vcache: VerdictCache,
    /// The decision-event ring shard this session writes to, assigned
    /// round-robin at construction so long-lived tasks spread across
    /// shards without per-emit coordination (see [`crate::events`]).
    event_shard: usize,
}

impl Default for TaskSession {
    fn default() -> Self {
        TaskSession {
            snap: None,
            owner: 0,
            scratch: Vec::new(),
            vcache: VerdictCache::default(),
            event_shard: crate::events::session_shard(),
        }
    }
}

impl TaskSession {
    /// Creates an unpinned session.
    pub fn new() -> Self {
        Self::default()
    }

    fn owner_id(fw: &ProcessFirewall) -> usize {
        fw as *const ProcessFirewall as usize
    }

    /// Re-pins to the firewall's current snapshot iff the session is
    /// unpinned, pinned to a different firewall, or stale (a newer
    /// generation has been published). The staleness check is the
    /// lock-free fast path; only an actual re-pin touches the swap
    /// cell's mutex.
    fn refresh(&mut self, fw: &ProcessFirewall) {
        let id = Self::owner_id(fw);
        let stale = self.owner != id
            || match &self.snap {
                Some(snap) => snap.generation() != fw.generation(),
                None => true,
            };
        if stale {
            self.snap = Some(fw.base());
            self.owner = id;
            // Cached verdicts belong to the previous snapshot; a hot
            // reload (or firewall swap) invalidates them wholesale.
            self.vcache.clear();
        }
    }

    /// Pins the firewall's current snapshot and returns its generation.
    pub fn pin(&mut self, fw: &ProcessFirewall) -> u64 {
        self.refresh(fw);
        // `refresh` always pins; the fallback only defends against a
        // future refactor breaking that invariant.
        self.generation().unwrap_or_else(|| fw.generation())
    }

    /// The generation this session is pinned to, if any.
    pub fn generation(&self) -> Option<u64> {
        self.snap.as_ref().map(|s| s.generation())
    }

    /// The pinned snapshot, if any.
    pub fn snapshot(&self) -> Option<&Arc<RulesetSnapshot>> {
        self.snap.as_ref()
    }

    /// Drops the pin (and the verdict cache); the next evaluate re-pins
    /// from scratch.
    pub fn reset(&mut self) {
        self.snap = None;
        self.owner = 0;
        self.vcache.clear();
    }

    /// Number of verdicts currently memoized for this task (see
    /// [`VerdictCache`]).
    pub fn vcache_len(&self) -> usize {
        self.vcache.len()
    }

    /// The PF hook through this session: picks up any newly published
    /// ruleset, then evaluates against that one snapshot.
    pub fn evaluate(
        &mut self,
        fw: &ProcessFirewall,
        env: &mut dyn EvalEnv,
        op: LsmOperation,
    ) -> EvalDecision {
        self.refresh(fw);
        match self.snap.as_deref() {
            Some(snap) => fw.evaluate_cached(
                snap,
                env,
                op,
                &mut self.scratch,
                Some(&mut self.vcache),
                self.event_shard,
            ),
            // Unreachable after `refresh`, but never panic on the hook
            // path: fall back to a one-shot snapshot load.
            None => fw.evaluate(env, op),
        }
    }

    /// Evaluates against the snapshot pinned earlier, ignoring newer
    /// generations — the shape of an invocation that was already in
    /// flight when a reload published. Pins first if the session has
    /// never been pinned to `fw`.
    pub fn evaluate_pinned(
        &mut self,
        fw: &ProcessFirewall,
        env: &mut dyn EvalEnv,
        op: LsmOperation,
    ) -> EvalDecision {
        if self.snap.is_none() || self.owner != Self::owner_id(fw) {
            self.refresh(fw);
        }
        match self.snap.as_deref() {
            Some(snap) => fw.evaluate_cached(
                snap,
                env,
                op,
                &mut self.scratch,
                Some(&mut self.vcache),
                self.event_shard,
            ),
            None => fw.evaluate(env, op),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use crate::env::ObjectInfo;
    use pf_mac::{ubuntu_mini, MacPolicy};
    use pf_types::{
        DeviceId, Gid, InodeNum, Interner, Mode, Pid, ProgramId, ResourceId, SecId, Uid, Verdict,
    };

    /// Minimal env: fixed subject/program, one file object.
    struct Env {
        mac: MacPolicy,
        programs: Interner,
        subject: SecId,
        program: ProgramId,
        object: ObjectInfo,
    }

    impl Env {
        fn new(label: &str) -> Self {
            let mac = ubuntu_mini();
            let mut programs = Interner::new();
            let subject = mac.lookup_label("httpd_t").unwrap();
            let program = programs.intern("/usr/bin/apache2");
            let sid = mac.lookup_label(label).unwrap();
            Env {
                mac,
                programs,
                subject,
                program,
                object: ObjectInfo {
                    sid,
                    resource: ResourceId::File {
                        dev: DeviceId(0),
                        ino: InodeNum(5),
                    },
                    owner: Uid(0),
                    group: Gid(0),
                    mode: Mode::FILE_DEFAULT,
                },
            }
        }
    }

    impl EvalEnv for Env {
        fn subject_sid(&self) -> SecId {
            self.subject
        }
        fn program(&self) -> ProgramId {
            self.program
        }
        fn pid(&self) -> Pid {
            Pid(1)
        }
        fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
            Some((self.program, 0x100))
        }
        fn object(&self) -> Option<ObjectInfo> {
            Some(self.object)
        }
        fn link_target_owner(&mut self) -> Option<Uid> {
            None
        }
        fn syscall_arg(&self, _idx: usize) -> u64 {
            0
        }
        fn signal(&self) -> Option<crate::env::SignalInfo> {
            None
        }
        fn mac(&self) -> &MacPolicy {
            &self.mac
        }
        fn program_name(&self, id: ProgramId) -> Arc<str> {
            self.programs.resolve_shared(id)
        }
        fn state_get(&self, _key: u64) -> Option<u64> {
            None
        }
        fn state_set(&mut self, _key: u64, _value: u64) {}
        fn state_unset(&mut self, _key: u64) {}
        fn cache_get(&self, _slot: u8) -> Option<u64> {
            None
        }
        fn cache_put(&mut self, _slot: u8, _value: u64) {}
        fn now(&self) -> u64 {
            0
        }
    }

    #[test]
    fn session_tracks_published_generations() {
        let fw = ProcessFirewall::new(OptLevel::Full);
        let mut env = Env::new("tmp_t");
        let mut session = TaskSession::new();
        assert_eq!(session.generation(), None);
        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Allow);
        assert_eq!(session.generation(), Some(fw.generation()));

        fw.install(
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let d = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d.verdict, Verdict::Deny, "session saw the new rule");
        assert_eq!(d.generation, fw.generation());
    }

    #[test]
    fn pinned_evaluation_ignores_later_reloads() {
        let fw = ProcessFirewall::new(OptLevel::Full);
        let mut env = Env::new("tmp_t");
        fw.install(
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let mut session = TaskSession::new();
        let pinned_gen = session.pin(&fw);

        // Reload drops etc_t instead: the pinned session still sees the
        // old ruleset; a fresh session sees the new one.
        fw.reload(
            ["pftables -o FILE_OPEN -d etc_t -j DROP"],
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let d_old = session.evaluate_pinned(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d_old.verdict, Verdict::Deny);
        assert_eq!(d_old.generation, pinned_gen);

        let mut fresh = TaskSession::new();
        let d_new = fresh.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d_new.verdict, Verdict::Allow);
        assert_eq!(d_new.generation, fw.generation());
        assert!(d_new.generation > pinned_gen);

        // An un-pinned evaluate on the old session catches up.
        let d_caught = session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(d_caught.generation, fw.generation());
        assert_eq!(d_caught.verdict, Verdict::Allow);
    }

    #[test]
    fn session_repins_across_firewall_instances() {
        let fw_a = ProcessFirewall::new(OptLevel::Full);
        let fw_b = ProcessFirewall::new(OptLevel::Full);
        let mut env = Env::new("tmp_t");
        fw_b.install(
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let mut session = TaskSession::new();
        assert_eq!(
            session
                .evaluate(&fw_a, &mut env, LsmOperation::FileOpen)
                .verdict,
            Verdict::Allow
        );
        // Same generation number on fw_b, but a different firewall:
        // the owner check forces a re-pin.
        assert_eq!(
            session
                .evaluate(&fw_b, &mut env, LsmOperation::FileOpen)
                .verdict,
            Verdict::Deny
        );
    }

    #[test]
    fn forked_session_starts_with_a_cold_verdict_cache() {
        let fw = ProcessFirewall::new(OptLevel::Vcache);
        let mut env = Env::new("tmp_t");
        fw.install(
            "pftables -o FILE_OPEN -d tmp_t -j DROP",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let mut session = TaskSession::new();
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        assert_eq!(session.vcache_len(), 1);
        let child = session.clone();
        assert_eq!(child.vcache_len(), 0, "fork must not inherit verdicts");
        session.reset();
        assert_eq!(session.vcache_len(), 0, "reset drops the cache");
    }

    #[test]
    fn session_logs_reach_the_shared_sink() {
        let fw = ProcessFirewall::new(OptLevel::Full);
        let mut env = Env::new("tmp_t");
        fw.install(
            "pftables -o FILE_OPEN -j LOG --tag s",
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let mut session = TaskSession::new();
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        session.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        let logs = fw.drain_logs().entries;
        assert_eq!(logs.len(), 2);
        assert!(logs.iter().all(|e| e.tag == "s" && e.verdict == "ALLOW"));
    }
}
