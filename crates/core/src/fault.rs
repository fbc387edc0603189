//! Deterministic fault injection for the context layer.
//!
//! The fail-safe semantics of [`crate::env::Fetched`] are only worth
//! anything if they are exercised: a context fetch that *errors* (not
//! one that is benignly absent) is exactly the window an adversary aims
//! for — a corrupted stack the unwinder cannot walk, an inode raced
//! away by the VFS, a lost STATE dictionary. [`FaultyEnv`] wraps any
//! [`EvalEnv`] and converts a configurable, seed-deterministic fraction
//! of `try_*` fetches into [`Fetched::Failed`] results, so soak tests
//! and the `table6_faults` bench can measure how the engine degrades:
//! how many decisions ran degraded, whether fail-closed defaults held
//! every exploit rule, and what the policy machinery costs.
//!
//! Randomness is a hand-rolled xorshift64* stream (no external crates,
//! no wall clock), so a `(seed, workload)` pair always injects the same
//! fault sequence — failures found in CI reproduce locally byte for
//! byte. The injector's state is atomic, so one injector can drive many
//! threads; per-thread determinism then holds per interleaving, and the
//! aggregate fault *rate* holds regardless.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pf_mac::MacPolicy;
use pf_types::{Pid, ProgramId, SecId, Uid};

use crate::env::{CtxError, EvalEnv, Fetched, ObjectInfo, SignalInfo};

/// Per-channel fault rates (each `0.0 ..= 1.0`) and the PRNG seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed for the deterministic fault stream.
    pub seed: u64,
    /// Probability a stack unwind fails ([`CtxError::UnwindFault`]).
    pub unwind_fail: f64,
    /// Probability an object fetch fails ([`CtxError::ObjectFault`]).
    pub object_fail: f64,
    /// Probability the symlink-target owner lookup races
    /// ([`CtxError::LinkRace`]).
    pub link_fail: f64,
    /// Probability a STATE-dictionary read is lost
    /// ([`CtxError::StateLoss`]).
    pub state_fail: f64,
    /// Probability a virtual-clock read fails
    /// ([`CtxError::ClockFault`]) — the channel RATELIMIT/QUOTA
    /// targets depend on.
    pub clock_fail: f64,
    /// Probability a subject-origin (taint label) read fails
    /// ([`CtxError::OriginFault`]) — the channel `--origin`
    /// post-compromise containment rules depend on.
    pub origin_fail: f64,
}

impl FaultConfig {
    /// No faults at all (useful as a bench baseline).
    pub fn off(seed: u64) -> Self {
        Self::uniform(seed, 0.0)
    }

    /// The same fault rate on every channel.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        FaultConfig {
            seed,
            unwind_fail: rate,
            object_fail: rate,
            link_fail: rate,
            state_fail: rate,
            clock_fail: rate,
            origin_fail: rate,
        }
    }
}

/// A snapshot of how many faults the injector has delivered, per
/// channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected [`CtxError::UnwindFault`]s.
    pub unwind: u64,
    /// Injected [`CtxError::ObjectFault`]s.
    pub object: u64,
    /// Injected [`CtxError::LinkRace`]s.
    pub link: u64,
    /// Injected [`CtxError::StateLoss`]es.
    pub state: u64,
    /// Injected [`CtxError::ClockFault`]s.
    pub clock: u64,
    /// Injected [`CtxError::OriginFault`]s.
    pub origin: u64,
}

impl FaultStats {
    /// Total injected faults across every channel.
    pub fn total(&self) -> u64 {
        self.unwind + self.object + self.link + self.state + self.clock + self.origin
    }
}

/// The seeded fault source: rolls one xorshift64* stream and tallies
/// what it injects.
///
/// All state is atomic, so the injector is shared by `&` reference —
/// one injector can serve every thread of a soak test (and sit inside
/// a `Kernel` without making it `!Sync`).
#[derive(Debug)]
pub struct FaultInjector {
    cfg: FaultConfig,
    rng: AtomicU64,
    unwind: AtomicU64,
    object: AtomicU64,
    link: AtomicU64,
    state: AtomicU64,
    clock: AtomicU64,
    origin: AtomicU64,
}

impl FaultInjector {
    /// Creates an injector for the given configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultInjector {
            cfg,
            // xorshift64* requires a non-zero state; fold the seed
            // through an odd constant so seed 0 is still usable.
            rng: AtomicU64::new(cfg.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1),
            unwind: AtomicU64::new(0),
            object: AtomicU64::new(0),
            link: AtomicU64::new(0),
            state: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            origin: AtomicU64::new(0),
        }
    }

    /// The configuration this injector was built with.
    pub fn config(&self) -> FaultConfig {
        self.cfg
    }

    /// How many faults have been injected so far, per channel.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            unwind: self.unwind.load(Ordering::Relaxed),
            object: self.object.load(Ordering::Relaxed),
            link: self.link.load(Ordering::Relaxed),
            state: self.state.load(Ordering::Relaxed),
            clock: self.clock.load(Ordering::Relaxed),
            origin: self.origin.load(Ordering::Relaxed),
        }
    }

    /// Advances the xorshift64* stream by one step.
    fn next(&self) -> u64 {
        let mut cur = self.rng.load(Ordering::Relaxed);
        loop {
            let mut x = cur;
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            match self
                .rng
                .compare_exchange_weak(cur, x, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return x.wrapping_mul(0x2545_F491_4F6C_DD1D),
                Err(seen) => cur = seen,
            }
        }
    }

    /// One Bernoulli trial at `rate`, consuming one PRNG step only for
    /// rates strictly between 0 and 1.
    fn roll(&self, rate: f64) -> bool {
        if rate <= 0.0 {
            return false;
        }
        if rate >= 1.0 {
            return true;
        }
        let threshold = (rate * (1u64 << 32) as f64) as u64;
        (self.next() >> 32) < threshold
    }

    fn roll_unwind(&self) -> bool {
        let hit = self.roll(self.cfg.unwind_fail);
        if hit {
            self.unwind.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn roll_object(&self) -> bool {
        let hit = self.roll(self.cfg.object_fail);
        if hit {
            self.object.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn roll_link(&self) -> bool {
        let hit = self.roll(self.cfg.link_fail);
        if hit {
            self.link.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn roll_state(&self) -> bool {
        let hit = self.roll(self.cfg.state_fail);
        if hit {
            self.state.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn roll_clock(&self) -> bool {
        let hit = self.roll(self.cfg.clock_fail);
        if hit {
            self.clock.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn roll_origin(&self) -> bool {
        let hit = self.roll(self.cfg.origin_fail);
        if hit {
            self.origin.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }
}

/// An [`EvalEnv`] wrapper that injects fetch failures on the `try_*`
/// paths.
///
/// The roll happens *before* delegating: an injected fault models the
/// fetch machinery itself erroring, so the inner environment is never
/// consulted on a faulted fetch (just as a crashed unwinder returns no
/// frames). Everything else — identity, MAC policy, the STATE and cache
/// write paths — passes straight through.
pub struct FaultyEnv<'a> {
    inner: &'a mut dyn EvalEnv,
    injector: &'a FaultInjector,
}

impl<'a> FaultyEnv<'a> {
    /// Wraps `inner`, drawing faults from `injector`.
    pub fn new(inner: &'a mut dyn EvalEnv, injector: &'a FaultInjector) -> Self {
        FaultyEnv { inner, injector }
    }
}

impl EvalEnv for FaultyEnv<'_> {
    fn subject_sid(&self) -> SecId {
        self.inner.subject_sid()
    }

    fn program(&self) -> ProgramId {
        self.inner.program()
    }

    fn pid(&self) -> Pid {
        self.inner.pid()
    }

    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
        self.inner.unwind_entrypoint()
    }

    fn object(&self) -> Option<ObjectInfo> {
        self.inner.object()
    }

    fn link_target_owner(&mut self) -> Option<Uid> {
        self.inner.link_target_owner()
    }

    fn syscall_arg(&self, idx: usize) -> u64 {
        self.inner.syscall_arg(idx)
    }

    fn signal(&self) -> Option<SignalInfo> {
        self.inner.signal()
    }

    fn mac(&self) -> &MacPolicy {
        self.inner.mac()
    }

    fn program_name(&self, id: ProgramId) -> Arc<str> {
        self.inner.program_name(id)
    }

    fn state_get(&self, key: u64) -> Option<u64> {
        self.inner.state_get(key)
    }

    fn state_set(&mut self, key: u64, value: u64) {
        self.inner.state_set(key, value)
    }

    fn state_unset(&mut self, key: u64) {
        self.inner.state_unset(key)
    }

    fn cache_get(&self, slot: u8) -> Option<u64> {
        self.inner.cache_get(slot)
    }

    fn cache_put(&mut self, slot: u8, value: u64) {
        self.inner.cache_put(slot, value)
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn interp_frame(&self) -> Option<(String, u32)> {
        self.inner.interp_frame()
    }

    fn try_unwind_entrypoint(&mut self) -> Fetched<(ProgramId, u64)> {
        if self.injector.roll_unwind() {
            return Fetched::Failed(CtxError::UnwindFault);
        }
        self.inner.try_unwind_entrypoint()
    }

    fn try_object(&self) -> Fetched<ObjectInfo> {
        if self.injector.roll_object() {
            return Fetched::Failed(CtxError::ObjectFault);
        }
        self.inner.try_object()
    }

    fn try_link_target_owner(&mut self) -> Fetched<Uid> {
        if self.injector.roll_link() {
            return Fetched::Failed(CtxError::LinkRace);
        }
        self.inner.try_link_target_owner()
    }

    fn try_signal(&self) -> Fetched<SignalInfo> {
        self.inner.try_signal()
    }

    fn try_state_get(&self, key: u64) -> Fetched<u64> {
        if self.injector.roll_state() {
            return Fetched::Failed(CtxError::StateLoss);
        }
        self.inner.try_state_get(key)
    }

    fn try_now(&self) -> Fetched<u64> {
        if self.injector.roll_clock() {
            return Fetched::Failed(CtxError::ClockFault);
        }
        self.inner.try_now()
    }

    fn subject_origin(&self) -> Option<u64> {
        self.inner.subject_origin()
    }

    fn try_subject_origin(&mut self) -> Fetched<u64> {
        if self.injector.roll_origin() {
            return Fetched::Failed(CtxError::OriginFault);
        }
        self.inner.try_subject_origin()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_and_full_rates_are_exact() {
        let off = FaultInjector::new(FaultConfig::off(7));
        let on = FaultInjector::new(FaultConfig::uniform(7, 1.0));
        for _ in 0..1000 {
            assert!(!off.roll_unwind());
            assert!(on.roll_unwind());
        }
        assert_eq!(off.stats().total(), 0);
        assert_eq!(on.stats().unwind, 1000);
    }

    #[test]
    fn stream_is_seed_deterministic() {
        let a = FaultInjector::new(FaultConfig::uniform(42, 0.3));
        let b = FaultInjector::new(FaultConfig::uniform(42, 0.3));
        let c = FaultInjector::new(FaultConfig::uniform(43, 0.3));
        let seq = |inj: &FaultInjector| (0..256).map(|_| inj.roll_object()).collect::<Vec<_>>();
        let sa = seq(&a);
        assert_eq!(sa, seq(&b), "same seed, same fault sequence");
        assert_ne!(sa, seq(&c), "different seed diverges");
    }

    #[test]
    fn rate_is_respected_within_tolerance() {
        let inj = FaultInjector::new(FaultConfig::uniform(1234, 0.10));
        let n = 100_000;
        for _ in 0..n {
            inj.roll_unwind();
        }
        let hit = inj.stats().unwind as f64 / n as f64;
        assert!(
            (hit - 0.10).abs() < 0.01,
            "10% nominal rate measured at {hit}"
        );
    }

    #[test]
    fn channels_draw_from_one_stream_but_tally_separately() {
        let inj = FaultInjector::new(FaultConfig {
            seed: 9,
            unwind_fail: 1.0,
            object_fail: 0.0,
            link_fail: 1.0,
            state_fail: 0.0,
            clock_fail: 1.0,
            origin_fail: 1.0,
        });
        assert!(inj.roll_unwind());
        assert!(!inj.roll_object());
        assert!(inj.roll_link());
        assert!(!inj.roll_state());
        assert!(inj.roll_clock());
        assert!(inj.roll_origin());
        let s = inj.stats();
        assert_eq!(
            (s.unwind, s.object, s.link, s.state, s.clock, s.origin),
            (1, 0, 1, 0, 1, 1)
        );
    }
}
