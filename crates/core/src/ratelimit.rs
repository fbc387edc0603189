//! Per-rule throttle state for the RATELIMIT and QUOTA targets.
//!
//! The paper's firewall only renders binary verdicts; a production
//! deployment facing abuse floods needs to *degrade gracefully* —
//! throttle a signal storm instead of either delivering every signal or
//! denying legitimate ones. This module provides the concurrent state
//! those targets consume:
//!
//! * a **token bucket** (`-j RATELIMIT --rate N --burst M`) — `N`
//!   tokens accrue per [`RATE_PERIOD`] virtual clock ticks up to a cap
//!   of `M`, one token is spent per granted access;
//! * a **windowed counter** (`-j QUOTA --limit N --window T`) — at most
//!   `N` grants per `T`-tick window, the window restarting on the first
//!   access after it lapses.
//!
//! Both are keyed (`--per subject|adversary|resource`) and both live in
//! a [`ThrottleCell`]: a fixed-size, open-addressed table of packed
//! `AtomicU64` slots updated by CAS loops. No locks, no allocation, no
//! wall-clock reads — time is the Kernel's virtual clock, so tests are
//! deterministic.
//!
//! # Packed state word
//!
//! Each slot's state is one `u64`: the high 32 bits hold the last
//! refill tick (RATELIMIT) or the window start tick (QUOTA), the low 32
//! bits hold the token balance in fixed point (RATELIMIT) or the grant
//! count (QUOTA). Packing both halves into one word is what makes the
//! update a single `compare_exchange` — a reader can never observe a
//! tick from one update paired with a balance from another (no torn
//! reads), and a retried CAS re-derives *both* halves from the freshly
//! observed word (no lost tokens).
//!
//! The all-zero word is reserved as "never touched": a RATELIMIT slot
//! reads it as a full bucket stamped at the current tick, a QUOTA slot
//! as an empty window. A computed successor that would legitimately
//! equal zero is nudged to 1 fixed-point unit so it cannot be mistaken
//! for fresh state.
//!
//! # Memory ordering
//!
//! Successful CAS updates use `AcqRel` and reads use `Acquire`. The
//! counters themselves only need atomicity (`Relaxed` CAS would already
//! forbid lost updates), but acquire/release keeps every observed state
//! word a causal successor of the one it replaced, which is what the
//! overload-soak test's exact-accounting assertions lean on — see
//! `docs/CONCURRENCY.md`.
//!
//! # Bounded memory
//!
//! The table holds [`SLOTS`] slots per rule, claimed first-come by key
//! hash with bounded linear probing. Keys that exhaust their probe
//! window share the reserved *spill* slot 0 — a conservative shared
//! bucket. An adversary minting unbounded distinct keys (the classic
//! state-exhaustion attack on rate limiters) therefore cannot grow the
//! table; they only crowd themselves into a stricter shared budget.

use std::sync::atomic::{AtomicU64, Ordering};

/// Slots per [`ThrottleCell`], including the reserved spill slot 0.
pub const SLOTS: usize = 64;

/// Linear-probe attempts before a key falls back to the spill slot.
const PROBE_LIMIT: u64 = 8;

/// Fixed-point shift for token balances: 1 token = `1 << FP_SHIFT`
/// fixed-point units, so refill stays a pure multiply.
const FP_SHIFT: u32 = 10;

/// One whole token in fixed point.
const FP_ONE: u64 = 1 << FP_SHIFT;

/// Virtual-clock ticks over which `--rate N` accrues `N` tokens.
///
/// Chosen equal to `FP_ONE` so the per-tick refill in fixed point is
/// exactly `rate`: `rate tokens / 1024 ticks = rate fp-units / tick`.
pub const RATE_PERIOD: u64 = 1 << FP_SHIFT;

/// Upper bound accepted for `--rate` (tokens per [`RATE_PERIOD`]).
pub const MAX_RATE: u64 = 1_000_000;

/// Upper bound accepted for `--burst` (`burst << FP_SHIFT` must fit in
/// the 32-bit balance half of the packed word).
pub const MAX_BURST: u64 = 1_000_000;

/// Upper bound accepted for `--limit` (the count half is 32 bits).
pub const MAX_LIMIT: u64 = u32::MAX as u64;

/// Upper bound accepted for `--window` (tick arithmetic is 32-bit).
pub const MAX_WINDOW: u64 = u32::MAX as u64;

/// Window applied when `-j QUOTA` omits `--window`.
pub const DEFAULT_WINDOW: u64 = 1 << FP_SHIFT;

/// What a throttle target keys its buckets by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PerKey {
    /// One bucket per subject label (the protected process's SID).
    #[default]
    Subject,
    /// One bucket per adversary — keyed by the resource's DAC owner,
    /// the cheapest stable stand-in for "who planted this".
    Adversary,
    /// One bucket per resource identity (device+inode fold).
    Resource,
}

impl PerKey {
    /// Canonical option spelling, as accepted and re-rendered.
    pub fn name(self) -> &'static str {
        match self {
            PerKey::Subject => "subject",
            PerKey::Adversary => "adversary",
            PerKey::Resource => "resource",
        }
    }

    /// Parses an option spelling; `None` if unrecognised.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "subject" => Some(PerKey::Subject),
            "adversary" => Some(PerKey::Adversary),
            "resource" => Some(PerKey::Resource),
            _ => None,
        }
    }
}

/// What a throttle target does with an over-budget access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExceedPolicy {
    /// Deny the access (the fail-safe default).
    #[default]
    Drop,
    /// Allow it but emit a log entry — shadow/observe mode.
    Log,
    /// Allow it, log it, and mark the invocation degraded so the
    /// verdict is flagged (and never verdict-cached).
    Degrade,
}

impl ExceedPolicy {
    /// Canonical option spelling, as accepted and re-rendered.
    pub fn name(self) -> &'static str {
        match self {
            ExceedPolicy::Drop => "drop",
            ExceedPolicy::Log => "log",
            ExceedPolicy::Degrade => "degrade",
        }
    }

    /// Parses an option spelling; `None` if unrecognised.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "drop" => Some(ExceedPolicy::Drop),
            "log" => Some(ExceedPolicy::Log),
            "degrade" => Some(ExceedPolicy::Degrade),
            _ => None,
        }
    }
}

/// One occupied throttle bucket, decoded for the exporters: which key
/// it belongs to, its last tick, and its raw balance/count half.
///
/// Obtained from [`ThrottleCell::occupancy`]. The `raw` half is
/// interpretation-dependent — use [`ThrottleSlotState::tokens`] for
/// RATELIMIT rules and [`ThrottleSlotState::count`] for QUOTA rules
/// (the rule's target, not the slot, says which applies).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThrottleSlotState {
    /// The bucket key (subject SID, adversary uid, or resource fold,
    /// per the rule's `--per`). 0 and meaningless for the spill slot.
    pub key: u64,
    /// High half of the packed word: the last refill tick (RATELIMIT)
    /// or the window start tick (QUOTA).
    pub tick: u32,
    /// Low half of the packed word: the fixed-point token balance
    /// (RATELIMIT) or the grant count (QUOTA).
    pub raw: u32,
    /// `true` for the shared spill bucket — the flag that says some
    /// key population exhausted its probe window (state-exhaustion
    /// pressure) and is sharing one conservative budget.
    pub spill: bool,
}

impl ThrottleSlotState {
    /// Whole tokens remaining, reading `raw` as a RATELIMIT balance.
    pub fn tokens(&self) -> u32 {
        self.raw >> FP_SHIFT
    }

    /// Grants recorded in the current window, reading `raw` as a QUOTA
    /// count.
    pub fn count(&self) -> u32 {
        self.raw
    }
}

/// One slot: a claimed key (stored as `key + 1`; 0 = unclaimed) and its
/// packed state word.
#[derive(Debug)]
struct Slot {
    key: AtomicU64,
    state: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            key: AtomicU64::new(0),
            state: AtomicU64::new(0),
        }
    }
}

/// The per-rule throttle table: [`SLOTS`] lock-free keyed buckets.
///
/// One cell is allocated per RATELIMIT/QUOTA rule, boxed inside the
/// rule. Every snapshot that carries the rule shares its `Arc<Rule>`,
/// and a reload that re-submits the rule verbatim adopts that `Arc`
/// (see `snapshot.rs`), which is what lets bucket state survive hot
/// reloads. The cell also counts the accesses the rule's budget
/// rejected — the rule's `throttled` counter, which only a throttle
/// rule can move — so it follows the rule the same way.
#[derive(Debug)]
pub struct ThrottleCell {
    slots: [Slot; SLOTS],
    rejected: AtomicU64,
}

impl Default for ThrottleCell {
    fn default() -> Self {
        Self::new()
    }
}

/// Splits a packed word into `(tick, value)` halves.
#[inline]
fn unpack(word: u64) -> (u32, u32) {
    ((word >> 32) as u32, word as u32)
}

/// Packs `(tick, value)` halves, nudging an accidental all-zero word to
/// 1 fp-unit so it stays distinguishable from "never touched".
#[inline]
fn pack(tick: u32, value: u32) -> u64 {
    let word = ((tick as u64) << 32) | value as u64;
    if word == 0 {
        1
    } else {
        word
    }
}

/// Finalizer-free hash (splitmix64 tail) spreading keys over slots.
#[inline]
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

impl ThrottleCell {
    /// Creates an empty table.
    pub fn new() -> Self {
        ThrottleCell {
            slots: std::array::from_fn(|_| Slot::new()),
            rejected: AtomicU64::new(0),
        }
    }

    /// Accesses the rule's budget rejected.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    pub(crate) fn bump_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
    }

    /// Finds or claims the slot for `key`, falling back to the shared
    /// spill slot when the probe window is exhausted (or for the one
    /// key whose `key + 1` encoding would collide with "unclaimed").
    fn slot_state(&self, key: u64) -> &AtomicU64 {
        let stored = match key.checked_add(1) {
            Some(s) => s,
            None => return &self.slots[0].state,
        };
        let h = mix(key);
        for i in 0..PROBE_LIMIT {
            let idx = 1 + (h.wrapping_add(i) % (SLOTS as u64 - 1)) as usize;
            let slot = &self.slots[idx];
            let seen = slot.key.load(Ordering::Acquire);
            if seen == stored {
                return &slot.state;
            }
            if seen == 0 {
                match slot
                    .key
                    .compare_exchange(0, stored, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => return &slot.state,
                    // Lost the claim race — to ourselves (same key on
                    // another thread) or to a different key. Re-check,
                    // then keep probing.
                    Err(winner) => {
                        if winner == stored {
                            return &slot.state;
                        }
                    }
                }
            }
        }
        &self.slots[0].state
    }

    /// Token-bucket consume: grants (and spends one token) when the
    /// bucket keyed by `key` has at least one whole token at virtual
    /// tick `now`, refilling `rate` tokens per [`RATE_PERIOD`] ticks up
    /// to a cap of `burst` tokens.
    ///
    /// The last-refill tick is advanced to `now` on *every* successful
    /// update — including denials, so fractional accrual persists — and
    /// a retrying CAS re-derives the balance from the freshly observed
    /// word, so concurrent consumers can neither double-accrue an
    /// elapsed interval nor lose a spent token.
    pub fn rate_consume(&self, key: u64, now: u64, rate: u64, burst: u64) -> bool {
        let state = self.slot_state(key);
        let now32 = now as u32;
        let cap = (burst << FP_SHIFT).min(u32::MAX as u64);
        let mut cur = state.load(Ordering::Acquire);
        loop {
            let (balance, granted) = if cur == 0 {
                // Never touched: a full bucket stamped at `now`.
                (cap - FP_ONE, true)
            } else {
                let (last, bal) = unpack(cur);
                let elapsed = now32.wrapping_sub(last) as u64;
                let refilled = (bal as u64)
                    .saturating_add(elapsed.saturating_mul(rate))
                    .min(cap);
                if refilled >= FP_ONE {
                    (refilled - FP_ONE, true)
                } else {
                    (refilled, false)
                }
            };
            let next = pack(now32, balance as u32);
            match state.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return granted,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Windowed-counter consume: grants while fewer than `limit`
    /// accesses have been granted in the current `window`-tick window;
    /// the first access after a window lapses restarts it at `now`.
    ///
    /// Denials write nothing — the window boundary is set by granted
    /// traffic only, so a sustained flood cannot push its own window
    /// forward and starve the reset.
    pub fn quota_consume(&self, key: u64, now: u64, limit: u64, window: u64) -> bool {
        let state = self.slot_state(key);
        let now32 = now as u32;
        let mut cur = state.load(Ordering::Acquire);
        loop {
            let (start, count) = if cur == 0 {
                (now32, 0u32)
            } else {
                let (start, count) = unpack(cur);
                if (now32.wrapping_sub(start) as u64) >= window {
                    (now32, 0)
                } else {
                    (start, count)
                }
            };
            if (count as u64) >= limit {
                return false;
            }
            let next = pack(start, count + 1);
            match state.compare_exchange_weak(cur, next, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
    }

    /// A point-in-time snapshot of every touched bucket, for the
    /// occupancy exporters (`pfstat`, Prometheus, JSON).
    ///
    /// The spill bucket appears (flagged) only once it has been
    /// consumed from; claimed per-key slots appear even before their
    /// first state write, with `raw == 0` meaning "fresh" (a full
    /// RATELIMIT bucket / an empty QUOTA window). The walk is
    /// lock-free and racy by design — each slot is one atomic load,
    /// so a snapshot taken under traffic is per-slot consistent (the
    /// packed word can never pair a tick with a foreign balance) but
    /// not cross-slot consistent.
    pub fn occupancy(&self) -> Vec<ThrottleSlotState> {
        let mut out = Vec::new();
        for (idx, slot) in self.slots.iter().enumerate() {
            let state = slot.state.load(Ordering::Acquire);
            let (tick, raw) = unpack(state);
            if idx == 0 {
                if state != 0 {
                    out.push(ThrottleSlotState {
                        key: 0,
                        tick,
                        raw,
                        spill: true,
                    });
                }
                continue;
            }
            // `checked_sub` skips unclaimed slots (stored key is 0) and
            // undoes the `key + 1` encoding in one step.
            let stored = slot.key.load(Ordering::Acquire);
            if let Some(key) = stored.checked_sub(1) {
                out.push(ThrottleSlotState {
                    key,
                    tick,
                    raw,
                    spill: false,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn bucket_grants_burst_then_denies_at_frozen_clock() {
        let cell = ThrottleCell::new();
        let grants = (0..100)
            .filter(|_| cell.rate_consume(7, 50, 512, 4))
            .count();
        assert_eq!(grants, 4, "exactly the burst, nothing more");
    }

    #[test]
    fn fractional_refill_accrues_across_denied_attempts() {
        let cell = ThrottleCell::new();
        // burst 1, rate 512 = half a token per tick.
        assert!(cell.rate_consume(1, 0, 512, 1));
        assert!(!cell.rate_consume(1, 0, 512, 1), "bucket drained");
        assert!(
            !cell.rate_consume(1, 1, 512, 1),
            "one tick = half a token: still short"
        );
        assert!(
            cell.rate_consume(1, 2, 512, 1),
            "the half-token from the denied attempt persisted"
        );
    }

    #[test]
    fn refill_caps_at_burst() {
        let cell = ThrottleCell::new();
        assert!(cell.rate_consume(1, 0, 1024, 2));
        // A very long idle period must not bank more than `burst`.
        let grants = (0..100)
            .filter(|_| cell.rate_consume(1, 1_000_000, 1024, 2))
            .count();
        assert_eq!(grants, 2);
    }

    #[test]
    fn distinct_keys_get_distinct_buckets() {
        let cell = ThrottleCell::new();
        assert!(cell.rate_consume(1, 0, 1, 1));
        assert!(!cell.rate_consume(1, 0, 1, 1));
        assert!(cell.rate_consume(2, 0, 1, 1), "key 2 untouched by key 1");
    }

    #[test]
    fn overflowing_key_population_spills_but_keeps_working() {
        let cell = ThrottleCell::new();
        // 200 distinct keys into 63 usable slots: most must share the
        // spill bucket, and the table must neither grow nor panic.
        let grants = (0..200u64)
            .filter(|&k| cell.rate_consume(k, 0, 1, 1))
            .count();
        assert!(grants < 200, "spilled keys share one budget");
        assert!(grants >= SLOTS - 1, "every claimed slot granted once");
    }

    #[test]
    fn max_key_routes_to_spill_slot() {
        let cell = ThrottleCell::new();
        assert!(cell.rate_consume(u64::MAX, 0, 1, 1));
        assert!(!cell.rate_consume(u64::MAX, 0, 1, 1));
    }

    #[test]
    fn tick_wrap_still_refills() {
        let cell = ThrottleCell::new();
        let edge = u32::MAX as u64;
        assert!(cell.rate_consume(9, edge, 1024, 1));
        assert!(!cell.rate_consume(9, edge, 1024, 1));
        // The 32-bit tick wraps: elapsed = (1 - u32::MAX) mod 2^32 = 2.
        assert!(cell.rate_consume(9, edge + 2, 1024, 1));
    }

    #[test]
    fn quota_denies_within_window_and_resets_after() {
        let cell = ThrottleCell::new();
        let grants = (0..10).filter(|_| cell.quota_consume(3, 5, 4, 100)).count();
        assert_eq!(grants, 4);
        assert!(!cell.quota_consume(3, 90, 4, 100), "window still open");
        assert!(cell.quota_consume(3, 105, 4, 100), "window lapsed: reset");
        assert_eq!(
            (0..10)
                .filter(|_| cell.quota_consume(3, 106, 4, 100))
                .count(),
            3,
            "fresh window already spent one grant"
        );
    }

    #[test]
    fn quota_denials_do_not_extend_the_window() {
        let cell = ThrottleCell::new();
        assert!(cell.quota_consume(1, 0, 1, 10));
        // A flood of denied attempts right up to the boundary...
        for t in 1..10 {
            assert!(!cell.quota_consume(1, t, 1, 10));
        }
        // ...must not have pushed the window start forward.
        assert!(cell.quota_consume(1, 10, 1, 10));
    }

    #[test]
    fn concurrent_hammering_grants_exactly_burst() {
        let cell = Arc::new(ThrottleCell::new());
        let granted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cell = Arc::clone(&cell);
                let granted = Arc::clone(&granted);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        if cell.rate_consume(42, 17, 256, 32) {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(
            granted.load(Ordering::Relaxed),
            32,
            "no lost tokens, no double grants, at a frozen clock"
        );
    }

    #[test]
    fn concurrent_quota_grants_exactly_limit() {
        let cell = Arc::new(ThrottleCell::new());
        let granted = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cell = Arc::clone(&cell);
                let granted = Arc::clone(&granted);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        if cell.quota_consume(42, 17, 100, 1_000) {
                            granted.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        assert_eq!(granted.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn occupancy_reports_claimed_slots_and_spill() {
        let cell = ThrottleCell::new();
        assert!(cell.occupancy().is_empty(), "untouched table is empty");
        assert!(cell.rate_consume(7, 0, 512, 4));
        let occ = cell.occupancy();
        assert_eq!(occ.len(), 1);
        assert_eq!(occ[0].key, 7);
        assert!(!occ[0].spill);
        assert_eq!(occ[0].tokens(), 3, "burst 4 minus the granted token");
        // u64::MAX cannot be key-encoded and always lands in the spill
        // bucket, raising the spill flag in the snapshot.
        assert!(cell.quota_consume(u64::MAX, 5, 4, 100));
        let occ = cell.occupancy();
        assert_eq!(occ.len(), 2);
        let spill = occ.iter().find(|s| s.spill).unwrap();
        assert_eq!(spill.count(), 1);
        assert_eq!(spill.tick, 5);
    }

    #[test]
    fn perkey_and_exceed_round_trip_their_names() {
        for per in [PerKey::Subject, PerKey::Adversary, PerKey::Resource] {
            assert_eq!(PerKey::parse(per.name()), Some(per));
        }
        for ex in [ExceedPolicy::Drop, ExceedPolicy::Log, ExceedPolicy::Degrade] {
            assert_eq!(ExceedPolicy::parse(ex.name()), Some(ex));
        }
        assert_eq!(PerKey::parse("bogus"), None);
        assert_eq!(ExceedPolicy::parse("bogus"), None);
    }
}
