//! Rule-base listing, in the spirit of `iptables -L -v`.

use std::fmt::Write as _;

use crate::chain::ChainName;
use crate::engine::ProcessFirewall;

/// Renders the installed rule base: one section per chain, one line per
/// rule with its evaluated and hit counters, followed by a summary of
/// the entrypoint chains and of how the verdict cache treats the
/// snapshot: `off` when an impure rule is reachable (every invocation
/// bypasses it), keyed per object when a rule reads the resource, or
/// keyed per label class.
///
/// The `evals` column comes from the metrics registry's per-rule
/// counters and stays zero unless detailed metrics are enabled
/// ([`crate::metrics::Metrics::set_detailed`]); the `hits` column is the
/// rule's own always-on counter.
///
/// # Examples
///
/// ```
/// use pf_core::{render_rules, OptLevel, ProcessFirewall};
/// use pf_types::Interner;
///
/// let mut mac = pf_mac::ubuntu_mini();
/// let mut programs = Interner::new();
/// let mut pf = ProcessFirewall::new(OptLevel::EptSpc);
/// pf.install("pftables -o FILE_OPEN -d tmp_t -j DROP", &mut mac, &mut programs)
///     .unwrap();
/// let listing = render_rules(&pf);
/// assert!(listing.contains("chain input"));
/// assert!(listing.contains("hits=0"));
/// ```
pub fn render_rules(pf: &ProcessFirewall) -> String {
    let mut out = String::new();
    for (chain, rules) in pf.base().iter() {
        let policy = match chain {
            ChainName::Input | ChainName::Output | ChainName::SyscallBegin => " (policy ACCEPT)",
            ChainName::User(_) => "",
        };
        let _ = writeln!(
            out,
            "chain {}{} — {} rules",
            chain.name(),
            policy,
            rules.len()
        );
        let snap = pf.metrics().chain_snapshot(chain);
        for (i, rule) in rules.iter().enumerate() {
            let evals = snap
                .as_ref()
                .and_then(|s| s.evaluated.get(i).copied())
                .unwrap_or(0);
            let _ = writeln!(
                out,
                "  [{i:>3}] evals={evals:<8} hits={:<8} {}",
                rule.hits(),
                rule.text
            );
        }
    }
    let base = pf.base();
    let eptspc = base.input_ept_dispatch();
    let vcache = if !base.statically_cacheable() {
        "off (an impure rule is reachable)"
    } else if base.keys_resource() {
        "keyed per object (a rule reads C_INO)"
    } else {
        "keyed per label class"
    };
    let _ = writeln!(
        out,
        "{} rules total; {} entrypoint-specific chains; {} generic input rules; VCACHE {vcache}",
        pf.rule_count(),
        eptspc.bucket_count(),
        eptspc.wildcard_len()
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OptLevel;
    use pf_types::Interner;

    #[test]
    fn listing_includes_every_chain_and_rule() {
        let mut mac = pf_mac::ubuntu_mini();
        let mut programs = Interner::new();
        let pf = ProcessFirewall::new(OptLevel::Full);
        pf.install_all(
            [
                "pftables -o FILE_OPEN -d tmp_t -j DROP",
                "pftables -I signal_chain -m SIGNAL_MATCH -j DROP",
                "pftables -p /bin/x -i 0x10 -o FILE_READ -j DROP",
            ],
            &mut mac,
            &mut programs,
        )
        .unwrap();
        let listing = render_rules(&pf);
        assert!(listing.contains("chain input (policy ACCEPT)"));
        assert!(listing.contains("chain signal_chain"));
        assert!(listing.contains("3 rules total"));
        assert!(listing.contains("1 entrypoint-specific chains"));
    }

    #[test]
    fn summary_states_the_vcache_mode() {
        let mut mac = pf_mac::ubuntu_mini();
        let mut programs = Interner::new();
        let pf = ProcessFirewall::new(OptLevel::Vcache);
        let mut add = |line: &str| {
            pf.install(line, &mut mac, &mut programs).unwrap();
            render_rules(&pf)
        };
        // The SIGNAL_MATCH rule is impure, but nothing jumps to it.
        add("pftables -I signal_chain -m SIGNAL_MATCH -j DROP");
        let listing = add("pftables -o FILE_OPEN -d etc_t -j DROP");
        assert!(
            listing.contains("; VCACHE keyed per label class\n"),
            "{listing}"
        );
        let listing = add("pftables -o FILE_OPEN -m COMPARE --v1 C_INO --v2 7 -j ACCEPT");
        assert!(listing.contains("; VCACHE keyed per object (a rule reads C_INO)\n"));
        let listing = add("pftables -o FILE_OPEN -d tmp_t -j LOG --tag t");
        assert!(listing.contains("; VCACHE off (an impure rule is reachable)\n"));
    }
}
