//! Firewall configuration and the Table 6 optimization ladder.

/// Individual feature toggles for the firewall engine.
///
/// Each flag corresponds to one optimization column of Table 6; the
/// [`OptLevel`] presets compose them cumulatively the way the paper's
/// microbenchmark does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PfConfig {
    /// Master switch: `false` means the hook returns immediately
    /// (the DISABLED column).
    pub enabled: bool,
    /// CONCACHE: cache the entrypoint context in the per-syscall task
    /// cache so repeated invocations within one system call (pathname
    /// resolution!) do not re-unwind the stack.
    pub context_caching: bool,
    /// LAZYCON: gather a context field only when a rule's match actually
    /// needs it, instead of building the full "packet" up front.
    pub lazy_context: bool,
    /// EPTSPC: organize entrypoint-bearing rules into chains keyed by
    /// (program, pc) so only the applicable chain is traversed.
    pub entrypoint_chains: bool,
    /// VCACHE: memoize whole verdicts in a per-task cache keyed by the
    /// operation and its key context fields. The cache is consulted
    /// after dispatch selection, and only when the selection holds a
    /// rule, in place of walking it. Only traversals the cacheability
    /// analysis proves key-determined are inserted (see `chain.rs` /
    /// `engine.rs`).
    pub verdict_cache: bool,
    /// RULESETC: select from the input chain through the compiled
    /// per-(op, label, entrypoint) dispatch tables built at snapshot
    /// compile time, so a hook selects only the rules that can possibly
    /// match instead of the whole partition: more hooks select nothing
    /// and skip the verdict cache, and a miss walks only its selection
    /// (see `compile.rs`).
    pub compiled_dispatch: bool,
}

impl Default for PfConfig {
    fn default() -> Self {
        OptLevel::EptSpc.config()
    }
}

/// The cumulative optimization presets of Table 6.
///
/// Each level includes the optimizations of the previous one, mirroring
/// the table's columns left to right:
/// `DISABLED → BASE → FULL → CONCACHE → LAZYCON → EPTSPC → VCACHE →
/// RULESETC`. VCACHE and RULESETC extend the paper's ladder: beyond
/// caching *context*, VCACHE caches whole *verdicts* per task, and
/// RULESETC compiles the chain into indexed dispatch tables so the
/// selection made before the verdict cache already skips the rules
/// that cannot match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Firewall completely off.
    Disabled,
    /// Enabled with (typically) an empty rule base: pure hook overhead.
    Base,
    /// Full rule base, no optimizations: eager context, linear scan.
    Full,
    /// + context caching.
    ConCache,
    /// + lazy context evaluation.
    LazyCon,
    /// + entrypoint-specific chains.
    EptSpc,
    /// + per-task verdict cache.
    Vcache,
    /// + compiled indexed dispatch on all three axes.
    RulesetC,
}

impl OptLevel {
    /// All levels in Table 6 column order.
    pub const ALL: [OptLevel; 8] = [
        OptLevel::Disabled,
        OptLevel::Base,
        OptLevel::Full,
        OptLevel::ConCache,
        OptLevel::LazyCon,
        OptLevel::EptSpc,
        OptLevel::Vcache,
        OptLevel::RulesetC,
    ];

    /// The column heading used in Table 6.
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::Disabled => "DISABLED",
            OptLevel::Base => "BASE",
            OptLevel::Full => "FULL",
            OptLevel::ConCache => "CONCACHE",
            OptLevel::LazyCon => "LAZYCON",
            OptLevel::EptSpc => "EPTSPC",
            OptLevel::Vcache => "VCACHE",
            OptLevel::RulesetC => "RULESETC",
        }
    }

    /// Parses a level name as used in Table 6 headings and the
    /// `pftables -O <LEVEL>` command (case-insensitive).
    pub fn parse(tok: &str) -> Option<OptLevel> {
        OptLevel::ALL
            .into_iter()
            .find(|l| l.name().eq_ignore_ascii_case(tok))
    }

    /// Expands the preset into concrete toggles.
    pub fn config(self) -> PfConfig {
        match self {
            OptLevel::Disabled => PfConfig {
                enabled: false,
                context_caching: false,
                lazy_context: false,
                entrypoint_chains: false,
                verdict_cache: false,
                compiled_dispatch: false,
            },
            OptLevel::Base | OptLevel::Full => PfConfig {
                enabled: true,
                context_caching: false,
                lazy_context: false,
                entrypoint_chains: false,
                verdict_cache: false,
                compiled_dispatch: false,
            },
            OptLevel::ConCache => PfConfig {
                enabled: true,
                context_caching: true,
                lazy_context: false,
                entrypoint_chains: false,
                verdict_cache: false,
                compiled_dispatch: false,
            },
            OptLevel::LazyCon => PfConfig {
                enabled: true,
                context_caching: true,
                lazy_context: true,
                entrypoint_chains: false,
                verdict_cache: false,
                compiled_dispatch: false,
            },
            OptLevel::EptSpc => PfConfig {
                enabled: true,
                context_caching: true,
                lazy_context: true,
                entrypoint_chains: true,
                verdict_cache: false,
                compiled_dispatch: false,
            },
            OptLevel::Vcache => PfConfig {
                enabled: true,
                context_caching: true,
                lazy_context: true,
                entrypoint_chains: true,
                verdict_cache: true,
                compiled_dispatch: false,
            },
            OptLevel::RulesetC => PfConfig {
                enabled: true,
                context_caching: true,
                lazy_context: true,
                entrypoint_chains: true,
                verdict_cache: true,
                compiled_dispatch: true,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_cumulative() {
        let full = OptLevel::Full.config();
        let cc = OptLevel::ConCache.config();
        let lc = OptLevel::LazyCon.config();
        let ep = OptLevel::EptSpc.config();
        let vc = OptLevel::Vcache.config();
        let rc = OptLevel::RulesetC.config();
        assert!(!full.context_caching && !full.lazy_context && !full.entrypoint_chains);
        assert!(cc.context_caching && !cc.lazy_context);
        assert!(lc.context_caching && lc.lazy_context && !lc.entrypoint_chains);
        assert!(ep.context_caching && ep.lazy_context && ep.entrypoint_chains);
        assert!(!ep.verdict_cache);
        assert!(vc.entrypoint_chains && vc.verdict_cache);
        assert!(!vc.compiled_dispatch);
        assert!(rc.entrypoint_chains && rc.verdict_cache && rc.compiled_dispatch);
    }

    #[test]
    fn disabled_is_off() {
        assert!(!OptLevel::Disabled.config().enabled);
        assert!(OptLevel::Base.config().enabled);
    }

    #[test]
    fn default_is_fully_optimized() {
        // VCACHE is opt-in (a hit renders its DROP record, but it walks
        // no rule, so per-rule hit counters miss it), so the default
        // stays at EPTSPC.
        assert_eq!(PfConfig::default(), OptLevel::EptSpc.config());
    }

    #[test]
    fn level_names_round_trip_through_parse() {
        for level in OptLevel::ALL {
            assert_eq!(OptLevel::parse(level.name()), Some(level));
            assert_eq!(OptLevel::parse(&level.name().to_lowercase()), Some(level));
        }
        assert_eq!(OptLevel::parse("TURBO"), None);
    }
}
