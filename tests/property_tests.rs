//! Property-based tests over the core invariants.

use proptest::prelude::*;

use process_firewall::firewall::{OptLevel, ProcessFirewall};
use process_firewall::mac::{MacPolicy, PermSet};
use process_firewall::prelude::*;
use process_firewall::types::Interner;
use process_firewall::vfs::{normalize_lexical, resolve, ResolveOpts};

// ---------------------------------------------------------------------
// Path utilities.
// ---------------------------------------------------------------------

fn component_strategy() -> impl Strategy<Value = String> {
    prop_oneof![
        3 => "[a-z]{1,6}",
        1 => Just("..".to_owned()),
        1 => Just(".".to_owned()),
    ]
}

fn path_strategy() -> impl Strategy<Value = String> {
    (
        any::<bool>(),
        prop::collection::vec(component_strategy(), 0..8),
    )
        .prop_map(|(abs, comps)| {
            let body = comps.join("/");
            if abs {
                format!("/{body}")
            } else if body.is_empty() {
                ".".to_owned()
            } else {
                body
            }
        })
}

proptest! {
    #[test]
    fn normalization_is_idempotent(path in path_strategy()) {
        let once = normalize_lexical(&path);
        prop_assert_eq!(normalize_lexical(&once), once);
    }

    #[test]
    fn normalized_absolute_paths_never_contain_dotdot(path in path_strategy()) {
        prop_assume!(path.starts_with('/'));
        let n = normalize_lexical(&path);
        prop_assert!(n.split('/').all(|c| c != ".." && c != "."), "{}", n);
    }
}

// ---------------------------------------------------------------------
// VFS resolution.
// ---------------------------------------------------------------------

/// Builds a random directory tree and returns the file paths created.
fn build_tree(k: &mut Kernel, spec: &[(String, bool)]) -> Vec<String> {
    let mut files = Vec::new();
    for (i, (name, is_dir)) in spec.iter().enumerate() {
        let parent = if i % 3 == 0 || files.is_empty() {
            "/tmp".to_owned()
        } else {
            format!("/tmp/sub{}", i % 4)
        };
        k.mk_dirs(&parent).unwrap();
        let path = format!("{parent}/{name}{i}");
        if *is_dir {
            k.mk_dirs(&path).unwrap();
        } else {
            k.put_file(&path, b"x", 0o644, Uid(1000), Gid(1000))
                .unwrap();
            files.push(path);
        }
    }
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn resolution_reaches_exactly_what_was_created(
        spec in prop::collection::vec(("[a-z]{1,5}", any::<bool>()), 1..12)
    ) {
        let mut k = standard_world();
        let files = build_tree(&mut k, &spec);
        for path in files {
            let r = resolve(
                &k.vfs,
                k.vfs.root(),
                &path,
                &ResolveOpts::default(),
                &mut |_, _| Ok(()),
            ).unwrap();
            let obj = r.target.expect("created file must resolve");
            prop_assert!(k.vfs.inode(obj).unwrap().kind.is_file());
            // The hook sees one DirSearch per component.
            let mut searches = 0;
            resolve(&k.vfs, k.vfs.root(), &path, &ResolveOpts::default(), &mut |_, ev| {
                if matches!(ev, process_firewall::vfs::ResolveEvent::DirSearch { .. }) {
                    searches += 1;
                }
                Ok(())
            }).unwrap();
            prop_assert_eq!(searches as usize, path.split('/').filter(|c| !c.is_empty()).count());
        }
    }

    #[test]
    fn symlink_chains_resolve_like_their_targets_or_eloop(
        depth in 1usize..50
    ) {
        let mut k = standard_world();
        k.put_file("/tmp/base", b"x", 0o644, Uid(1000), Gid(1000)).unwrap();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        for i in 0..depth {
            let target = if i == 0 { "/tmp/base".to_owned() } else { format!("/tmp/l{}", i - 1) };
            k.symlink(pid, &target, &format!("/tmp/l{i}")).unwrap();
        }
        let top = format!("/tmp/l{}", depth - 1);
        let result = k.stat(pid, &top);
        if depth <= 40 {
            let direct = k.stat(pid, "/tmp/base").unwrap();
            prop_assert!(result.unwrap().same_object(&direct));
        } else {
            prop_assert!(matches!(result, Err(PfError::SymlinkLoop(_))));
        }
    }

    #[test]
    fn unlink_create_preserves_live_inode_uniqueness(
        ops in prop::collection::vec(any::<bool>(), 1..40)
    ) {
        // Whatever interleaving of create/unlink happens, two live files
        // never share (dev, ino).
        let mut k = standard_world();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        let mut live: Vec<(String, ObjRef)> = Vec::new();
        for (i, create) in ops.into_iter().enumerate() {
            if create || live.is_empty() {
                let path = format!("/tmp/f{i}");
                let fd = k.open(pid, &path, OpenFlags::creat(0o644)).unwrap();
                k.close(pid, fd).unwrap();
                live.push((path.clone(), k.lookup(&path).unwrap()));
            } else {
                let (path, _) = live.remove(i % live.len());
                k.unlink(pid, &path).unwrap();
            }
            let mut ids: Vec<_> = live.iter().map(|(_, o)| *o).collect();
            ids.sort();
            ids.dedup();
            prop_assert_eq!(ids.len(), live.len(), "live inode collision");
        }
    }
}

// ---------------------------------------------------------------------
// MAC adversary accessibility.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn growing_the_tcb_never_increases_adversary_access(
        n_subjects in 1usize..8,
        n_objects in 1usize..8,
        grants in prop::collection::vec((0usize..8, 0usize..8), 0..24),
        promote in prop::collection::vec(0usize..8, 0..8)
    ) {
        let mut p = MacPolicy::new();
        let subjects: Vec<_> = (0..n_subjects).map(|i| p.declare_subject(&format!("s{i}_t"))).collect();
        let objects: Vec<_> = (0..n_objects).map(|i| p.declare_object(&format!("o{i}_t"))).collect();
        for (s, o) in grants {
            p.allow(subjects[s % n_subjects], objects[o % n_objects], PermSet::RW);
        }
        let before: Vec<bool> = objects.iter().map(|&o| p.adversary_writable(o)).collect();
        for s in promote {
            p.add_to_syshigh(subjects[s % n_subjects]);
        }
        let after: Vec<bool> = objects.iter().map(|&o| p.adversary_writable(o)).collect();
        for (b, a) in before.iter().zip(&after) {
            prop_assert!(!*a || *b, "promotion to TCB created adversary access");
        }
    }
}

// ---------------------------------------------------------------------
// Engine: optimization-level equivalence and STATE semantics.
// ---------------------------------------------------------------------

fn label_pool() -> [&'static str; 5] {
    ["tmp_t", "etc_t", "lib_t", "usr_t", "user_home_t"]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimization_levels_never_change_verdicts(
        rule_specs in prop::collection::vec((0usize..5, any::<bool>(), 0u64..4), 1..12),
        access in (0usize..5, 0u64..4)
    ) {
        // Random deny rules over random label/entrypoint combinations;
        // a random access must get the same verdict at every level.
        let labels = label_pool();
        let mut verdicts = Vec::new();
        for level in [
            OptLevel::Full,
            OptLevel::ConCache,
            OptLevel::LazyCon,
            OptLevel::EptSpc,
            OptLevel::Vcache,
            OptLevel::RulesetC,
        ] {
            let mut k = standard_world();
            for &(lbl, with_ept, pc) in &rule_specs {
                let rule = if with_ept {
                    format!(
                        "pftables -p /bin/victim -i {:#x} -o FILE_OPEN -d {} -j DROP",
                        0x100 + pc, labels[lbl]
                    )
                } else {
                    format!("pftables -o FILE_OPEN -d {} -j DROP", labels[lbl])
                };
                k.install_rules([rule.as_str()]).unwrap();
            }
            k.firewall.set_level(level).unwrap();
            let pid = k.spawn("user_t", "/bin/victim", Uid(1000), Gid(1000));
            let (target_lbl, pc) = access;
            let path = match labels[target_lbl] {
                "tmp_t" => "/tmp",
                "etc_t" => "/etc/passwd",
                "lib_t" => "/lib/libc-2.15.so",
                "usr_t" => "/usr/share/pyshared/dstat_helpers.py",
                _ => "/home/user",
            };
            let outcome = k.with_frame(pid, "/bin/victim", 0x100 + pc, |k| {
                k.open(pid, path, OpenFlags::rdonly()).map(|fd| {
                    k.close(pid, fd).unwrap();
                })
            });
            verdicts.push(outcome.is_ok());
        }
        prop_assert!(verdicts.windows(2).all(|w| w[0] == w[1]), "{:?}", verdicts);
    }

    #[test]
    fn state_dictionary_set_then_match_round_trips(
        key in 1u64..1_000_000,
        value in 0u64..1_000_000
    ) {
        let mut k = standard_world();
        let set_rule = format!(
            "pftables -o SOCKET_BIND -j STATE --set --key {key} --value {value}"
        );
        let drop_rule = format!(
            "pftables -o FILE_OPEN -m STATE --key {key} --cmp {value} -j DROP"
        );
        k.install_rules([set_rule.as_str(), drop_rule.as_str()]).unwrap();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        // Before the bind records state, the open is unaffected.
        let fd = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        k.close(pid, fd).unwrap();
        // After bind sets the key, the matching open is dropped.
        k.bind_unix(pid, "/tmp/s.sock", 0o666).unwrap();
        prop_assert_eq!(k.task(pid).unwrap().pf_state.get(&key), Some(&value));
        let e = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap_err();
        prop_assert!(e.is_firewall_denial());
    }
}

// ---------------------------------------------------------------------
// Rule language: parse → display text → reparse stability.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn installed_rule_text_reinstalls_identically(
        lbl in 0usize..5,
        negate in any::<bool>(),
        pc in prop::option::of(1u64..0xffff),
        op in prop::sample::select(vec!["FILE_OPEN", "FILE_WRITE", "LINK_READ", "SOCKET_BIND"]),
    ) {
        let labels = label_pool();
        let set = if negate {
            format!("~{{{}}}", labels[lbl])
        } else {
            labels[lbl].to_owned()
        };
        let ept = pc.map(|p| format!("-p /bin/x -i {p:#x} ")).unwrap_or_default();
        let text = format!("pftables {ept}-o {op} -d {set} -j DROP");

        let mut mac = process_firewall::mac::ubuntu_mini();
        let mut progs = Interner::new();
        let a = process_firewall::firewall::lang::parse_rule(&text, &mut mac, &mut progs).unwrap();
        let b = process_firewall::firewall::lang::parse_rule(&a.rule.text, &mut mac, &mut progs).unwrap();
        prop_assert_eq!(a, b);

        // And it actually installs.
        let pf = ProcessFirewall::new(OptLevel::EptSpc);
        pf.install(&text, &mut mac, &mut progs).unwrap();
        prop_assert_eq!(pf.rule_count(), 1);
    }
}

// ---------------------------------------------------------------------
// Snapshot hot reload: linearizability and atomicity.
// ---------------------------------------------------------------------

mod reload_env {
    use std::sync::Arc;

    use process_firewall::firewall::{EvalEnv, ObjectInfo, SignalInfo};
    use process_firewall::mac::{ubuntu_mini, MacPolicy};
    use process_firewall::types::{
        DeviceId, Gid, InodeNum, Interner, Mode, Pid, ProgramId, ResourceId, SecId, Uid,
    };

    /// Minimal evaluation environment over one labelled file object.
    pub struct Env {
        pub mac: MacPolicy,
        pub programs: Interner,
        subject: SecId,
        program: ProgramId,
        object: ObjectInfo,
    }

    impl Env {
        pub fn new(label: &str) -> Self {
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
        fn signal(&self) -> Option<SignalInfo> {
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // A reload mid-trace is linearizable: an invocation still pinned
    // to the pre-reload snapshot gets exactly the old ruleset's
    // verdict, a fresh session gets exactly the new one, and both
    // verdicts carry the generation that proves which ruleset decided
    // them. No verdict is ever unreachable under both rulesets.
    #[test]
    fn mid_trace_reload_yields_only_attributable_verdicts(
        old_set in prop::collection::vec(0usize..5, 0..5),
        new_set in prop::collection::vec(0usize..5, 0..5),
        access in 0usize..5,
    ) {
        use process_firewall::firewall::TaskSession;
        use process_firewall::types::LsmOperation;

        let labels = label_pool();
        let lines = |set: &[usize]| -> Vec<String> {
            set.iter()
                .map(|&l| format!("pftables -o FILE_OPEN -d {} -j DROP", labels[l]))
                .collect()
        };
        let mut env = reload_env::Env::new(labels[access]);
        let fw = ProcessFirewall::new(OptLevel::Full);
        let old_lines = lines(&old_set);
        fw.install_all(
            old_lines.iter().map(String::as_str),
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let expect_old = old_set.contains(&access);
        let expect_new = new_set.contains(&access);

        let mut pinned = TaskSession::new();
        let old_gen = pinned.pin(&fw);

        let new_lines = lines(&new_set);
        let (applied, new_gen) = fw
            .reload(
                new_lines.iter().map(String::as_str),
                &mut env.mac,
                &mut env.programs,
            )
            .unwrap();
        prop_assert_eq!(applied, new_set.len());
        prop_assert!(new_gen > old_gen);

        // The in-flight invocation completes under the old ruleset.
        let d = pinned.evaluate_pinned(&fw, &mut env, LsmOperation::FileOpen);
        prop_assert_eq!(d.generation, old_gen);
        prop_assert_eq!(d.verdict == Verdict::Deny, expect_old);

        // A fresh session sees only the new ruleset.
        let mut fresh = TaskSession::new();
        let d = fresh.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        prop_assert_eq!(d.generation, new_gen);
        prop_assert_eq!(d.verdict == Verdict::Deny, expect_new);

        // The pinned session catches up as soon as it stops pinning.
        let d = pinned.evaluate(&fw, &mut env, LsmOperation::FileOpen);
        prop_assert_eq!(d.generation, new_gen);
        prop_assert_eq!(d.verdict == Verdict::Deny, expect_new);
    }

    // A reload batch containing any bad line publishes nothing: the
    // generation, the rule count, and every verdict stay exactly as
    // they were.
    #[test]
    fn failed_reload_is_all_or_nothing(
        keep in prop::collection::vec(0usize..5, 1..5),
        replacement in prop::collection::vec(0usize..5, 1..5),
        bad_pos in 0usize..5,
        access in 0usize..5,
    ) {
        use process_firewall::types::LsmOperation;

        let labels = label_pool();
        let mut env = reload_env::Env::new(labels[access]);
        let fw = ProcessFirewall::new(OptLevel::Full);
        let old_lines: Vec<String> = keep
            .iter()
            .map(|&l| format!("pftables -o FILE_OPEN -d {} -j DROP", labels[l]))
            .collect();
        fw.install_all(
            old_lines.iter().map(String::as_str),
            &mut env.mac,
            &mut env.programs,
        )
        .unwrap();
        let gen_before = fw.generation();
        let count_before = fw.rule_count();
        let verdict_before = fw.evaluate(&mut env, LsmOperation::FileOpen).verdict;

        let mut batch: Vec<String> = replacement
            .iter()
            .map(|&l| format!("pftables -o FILE_OPEN -d {} -j DROP", labels[l]))
            .collect();
        batch.insert(
            bad_pos.min(batch.len()),
            "pftables --definitely-not-a-flag".to_owned(),
        );
        let err = fw.reload(
            batch.iter().map(String::as_str),
            &mut env.mac,
            &mut env.programs,
        );
        prop_assert!(err.is_err());
        prop_assert_eq!(fw.generation(), gen_before, "generation leaked");
        prop_assert_eq!(fw.rule_count(), count_before, "rules leaked");
        let verdict_after = fw.evaluate(&mut env, LsmOperation::FileOpen).verdict;
        prop_assert_eq!(verdict_after, verdict_before, "verdict changed");
    }
}

// ---------------------------------------------------------------------
// Parser robustness: arbitrary input must error, never panic.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parser_never_panics_on_garbage(line in ".{0,120}") {
        let mut mac = process_firewall::mac::ubuntu_mini();
        let mut progs = Interner::new();
        let _ = process_firewall::firewall::lang::parse_command(&line, &mut mac, &mut progs);
    }

    #[test]
    fn parser_never_panics_on_pftables_prefixed_garbage(
        toks in prop::collection::vec("[-a-zA-Z0-9{}~|_./']{1,12}", 0..12)
    ) {
        let line = format!("pftables {}", toks.join(" "));
        let mut mac = process_firewall::mac::ubuntu_mini();
        let mut progs = Interner::new();
        let _ = process_firewall::firewall::lang::parse_command(&line, &mut mac, &mut progs);
    }

    #[test]
    fn log_parser_never_panics_on_garbage(json in ".{0,200}") {
        let _ = process_firewall::firewall::LogEntry::parse_json(&json);
    }

    #[test]
    fn policy_parser_never_panics_on_garbage(text in "(.|\n){0,200}") {
        let _ = process_firewall::mac::parse_policy(&text);
    }
}
