//! `pfstat`: the observability report tool.
//!
//! Runs one pf-attacks workload under the full rule base (EPTSPC) with
//! detailed metrics enabled and decision-event sampling at `always`,
//! then prints the counter/histogram report: the counter table's
//! `name value` summary (every total, then every nonzero per-operation
//! and per-field value), the hottest rules' own evaluated/hits/throttled
//! counters, the evaluation / context-fetch latency histograms, the
//! decision-event plane tallies, the log sink accounting, and live
//! RATELIMIT/QUOTA bucket occupancy. The per-rule rows and the
//! occupancy come from one walk of the live rule base.
//!
//! ```text
//! usage: pfstat [apache|boot|web] [--json|--prometheus]
//! ```
//!
//! `--json` and `--prometheus` switch the output to the corresponding
//! firewall-level exporter format — metrics plus event-plane counters
//! plus throttle occupancy (see docs/OBSERVABILITY.md).

use std::collections::HashMap;

use pf_attacks::workloads::{apache_build, boot, setup_build_tree, web_serve};
use pf_bench::{world_at, RuleSet};
use pf_core::events::EventKind;
use pf_core::metrics::Histogram;
use pf_core::{OptLevel, SamplingMode};

fn usage() -> ! {
    eprintln!("usage: pfstat [apache|boot|web] [--json|--prometheus]");
    std::process::exit(2);
}

enum Mode {
    Report,
    Json,
    Prometheus,
}

fn main() {
    let mut workload = "apache".to_owned();
    let mut mode = Mode::Report;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--json" => mode = Mode::Json,
            "--prometheus" => mode = Mode::Prometheus,
            "apache" | "boot" | "web" => workload = arg,
            _ => usage(),
        }
    }

    let (mut k, _) = world_at(OptLevel::EptSpc, RuleSet::Full);
    k.firewall.metrics().set_detailed(true);
    k.firewall.set_sampling(SamplingMode::Always);
    match workload.as_str() {
        "apache" => {
            setup_build_tree(&mut k);
            apache_build(&mut k).expect("apache build workload");
        }
        "boot" => {
            boot(&mut k).expect("boot workload");
        }
        "web" => {
            web_serve(&mut k, 10, 50).expect("web workload");
        }
        _ => unreachable!(),
    }

    match mode {
        Mode::Json => println!("{}", k.firewall.to_json()),
        Mode::Prometheus => print!("{}", k.firewall.render_prometheus()),
        Mode::Report => report(&k, &workload),
    }
}

fn report(k: &pf_os::Kernel, workload: &str) {
    let m = k.firewall.metrics();
    println!("pfstat: workload `{workload}` under the full rule base (EPTSPC)");
    println!();

    println!("== counters ==");
    print!("{}", m.render_summary());
    println!();

    // One walk of the live base: each rule's own counters, and the
    // throttle rules whose buckets the last section reads. The full base
    // has ~1218 rules, almost all never evaluated under EPTSPC — show
    // the active ones, hottest first.
    const TOP: usize = 20;
    let base = k.firewall.base();
    let (mut rows, mut throttles) = (Vec::new(), Vec::new());
    for (chain, rules) in base.iter() {
        for (i, rule) in rules.iter().enumerate() {
            let counts = (rule.evaluated(), rule.hits(), rule.throttled());
            if counts != (0, 0, 0) {
                rows.push((counts, chain.as_str(), i, &rule.text));
            }
            if let Some(cell) = rule.throttle_cell() {
                throttles.push((chain.as_str(), i, rule, cell));
            }
        }
    }
    rows.sort_by_key(|row| std::cmp::Reverse(row.0));
    println!(
        "== per-rule counters ({} of {} rules evaluated; top {}) ==",
        rows.len(),
        k.firewall.rule_count(),
        TOP.min(rows.len())
    );
    println!(
        "{:>10} {:>8} {:>9}  {:<14} {:>4}  text",
        "evals", "hits", "throttled", "chain", "rule"
    );
    for ((evals, hits, throttled), chain, index, text) in rows.iter().take(TOP) {
        println!("{evals:>10} {hits:>8} {throttled:>9}  {chain:<14} {index:>4}  {text}");
    }
    println!();

    print_histogram("hook evaluation latency", m.eval_latency());
    println!();
    print_histogram("context fetch latency", m.fetch_latency());
    println!();

    // Decision-event plane: drain what the workload emitted and tally
    // kinds, verdicts, and sampled-decision latency.
    let plane = k.firewall.events();
    println!(
        "== event plane (sampling `{}`) ==",
        plane.sampling().render()
    );
    let events = plane.drain();
    println!(
        "emitted {} / drained {} / overwritten {}",
        plane.emitted(),
        plane.drained(),
        plane.dropped()
    );
    if events.is_empty() {
        println!("(no events drained)");
    } else {
        let mut kinds: HashMap<&'static str, u64> = HashMap::new();
        let mut verdicts: HashMap<&'static str, u64> = HashMap::new();
        let lat = Histogram::default();
        for ev in &events {
            *kinds.entry(ev.kind.name()).or_default() += 1;
            if ev.kind == EventKind::Decision {
                *verdicts.entry(ev.verdict.name()).or_default() += 1;
                lat.record(ev.latency_ns);
            }
        }
        let mut kinds: Vec<_> = kinds.into_iter().collect();
        kinds.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (kind, n) in kinds {
            println!("{kind:<28} {n}");
        }
        let mut verdicts: Vec<_> = verdicts.into_iter().collect();
        verdicts.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
        for (verdict, n) in verdicts {
            println!("  verdict {verdict:<20} {n}");
        }
        if lat.count() > 0 {
            println!(
                "sampled decision latency: p50 {} ns, p99 {} ns, p99.9 {} ns",
                lat.p50(),
                lat.p99(),
                lat.percentile(0.999)
            );
        }
    }
    println!();

    // The bounded log sink: drop accounting is always-on, so a fleet
    // that outruns its collector shows up here as `overwritten`, never
    // as unbounded memory.
    let sink = k.firewall.log_sink();
    println!("== log sink (capacity {}) ==", sink.capacity());
    println!(
        "emitted {} / drained {} / overwritten {} / buffered {}",
        sink.emitted(),
        sink.drained(),
        sink.dropped(),
        sink.len()
    );
    println!();

    // Live per-key throttle bucket occupancy, straight off the packed
    // atomic words — no locks taken, buckets keep moving underneath.
    println!("== throttle occupancy ==");
    if throttles.is_empty() {
        println!("(no RATELIMIT/QUOTA rules installed)");
    }
    for (chain, index, rule, cell) in throttles {
        let kind = rule.target.kind_name();
        println!("{chain}[{index}] {kind} — {}", rule.text);
        let slots = cell.occupancy();
        if slots.is_empty() {
            println!("  (no active buckets)");
        }
        for slot in &slots {
            let (unit, value) = if kind == "RATELIMIT" {
                ("tokens", slot.tokens())
            } else {
                ("count ", slot.count())
            };
            println!(
                "  key {:#018x}  tick {:>8}  {unit} {value:>8}{}",
                slot.key,
                slot.tick,
                if slot.spill { "  [spill]" } else { "" }
            );
        }
    }
}

fn print_histogram(title: &str, h: Histogram) {
    println!("== {title} (ns) ==");
    if h.count() == 0 {
        println!("(no samples)");
        return;
    }
    println!(
        "count={} mean={} p50={} p99={} max={}",
        h.count(),
        h.mean(),
        h.p50(),
        h.p99(),
        h.max()
    );
    let total = h.count();
    for (upper, cum) in h.cumulative_buckets() {
        let pct = cum as f64 / total as f64 * 100.0;
        let bar = "#".repeat((pct / 2.5).round() as usize);
        println!("  <= {upper:>12}  {cum:>10} ({pct:>5.1}%) {bar}");
    }
}
