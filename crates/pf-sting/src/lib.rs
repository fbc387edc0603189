#![warn(missing_docs)]

//! A STING-style dynamic vulnerability tester.
//!
//! The paper's rule-generation pipeline starts from "over 20
//! previously-unknown vulnerabilities we found using our vulnerability
//! testing tool" (Section 6.3, citing Vijayakumar et al.'s STING,
//! USENIX Security 2012). STING finds name-resolution vulnerabilities
//! *dynamically*: watch a victim's pathname resolutions, identify the
//! namespace bindings an adversary could control, plant an attack there
//! (a symbolic link, a squatted file), re-run the victim, and observe
//! whether it swallows the bait.
//!
//! This crate reproduces that loop over the simulated kernel:
//!
//! 1. **Record** ([`record_surface`]): run the victim with the kernel's
//!    attack-surface log enabled; keep the resolution steps that landed
//!    in adversary-writable directories.
//! 2. **Attack** ([`test_victim`]): for every such (directory,
//!    component) site, rebuild a fresh world, plant a symlink to a
//!    canary target as the adversary, re-run the victim, and detect
//!    whether the victim accessed the canary.
//! 3. **Report**: each confirmed case becomes a
//!    [`pf_rulegen::VulnRecord`], from which
//!    [`pf_rulegen::rules_from_vulnerability`] derives a Process
//!    Firewall rule; [`verify_fix`] replays the attack under the rule
//!    and confirms the block.
//!
//! Log entries produced by the victim's accesses flow through the same
//! LOG machinery the paper uses, so the whole "found by tool → rule →
//! blocked" story (exploits E6/E7) is executable end-to-end.

use pf_os::{Kernel, OpenFlags, SurfaceEntry};
use pf_rulegen::VulnRecord;
use pf_types::{Gid, PfResult, Pid, Uid};

/// A victim program model the tester can run repeatedly.
///
/// `build` must produce a fresh deterministic world containing the
/// victim's environment; `run` executes the victim's resource-access
/// workload once and returns its pid.
pub trait Victim {
    /// Human-readable name for reports.
    fn name(&self) -> &str;

    /// Builds a fresh world (filesystem, policy, processes).
    fn build(&self) -> Kernel;

    /// Runs the victim's workload once; errors are fine (an attack that
    /// makes the victim fail *safely* is not a vulnerability).
    fn run(&self, kernel: &mut Kernel) -> PfResult<Pid>;
}

/// One adversary-controllable resolution site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackSite {
    /// Directory path is not tracked by the kernel log, so the site is
    /// identified by the directory object and the component name.
    pub dir: pf_vfs::ObjRef,
    /// The name the victim looked up there.
    pub component: String,
    /// The victim entrypoint performing the lookup (program path, pc),
    /// resolved at record time so it survives across rebuilt worlds.
    pub entrypoint: Option<(String, u64)>,
    /// The syscall it was part of.
    pub syscall: pf_types::SyscallNr,
}

/// A confirmed vulnerability: the victim used the planted resource.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Which victim.
    pub victim: String,
    /// Where the bait was planted (component name under the directory).
    pub component: String,
    /// The victim entrypoint that swallowed it (program path, pc).
    pub entrypoint: Option<(String, u64)>,
    /// The derived firewall rule that blocks it.
    pub rule: String,
}

/// The canary uid: bait objects belong to this adversary.
pub const ADVERSARY_UID: Uid = Uid(6666);

/// Phase 1: records the victim's adversary-accessible resolution steps.
pub fn record_surface(victim: &dyn Victim) -> PfResult<Vec<AttackSite>> {
    let mut kernel = victim.build();
    kernel.record_surface = true;
    let _ = victim.run(&mut kernel)?;
    let mut sites: Vec<AttackSite> = Vec::new();
    // Resolve adversary accessibility at *query* time, not from the bit
    // baked into the entry at record time: a run can widen the adversary
    // model mid-trace (a trusted subject crosses the taint threshold),
    // and a stale snapshot would silently drop the newly-reachable sites.
    for entry in kernel
        .surface
        .iter()
        .filter(|e| kernel.mac.adversary_writable(e.dir_label))
    {
        let SurfaceEntry {
            dir,
            component,
            entrypoint,
            syscall,
            ..
        } = entry;
        let site = AttackSite {
            dir: *dir,
            component: component.clone(),
            entrypoint: entrypoint.map(|(prog, pc)| (kernel.programs.resolve(prog).to_owned(), pc)),
            syscall: *syscall,
        };
        if !sites.contains(&site) {
            sites.push(site);
        }
    }
    Ok(sites)
}

/// Reconstructs the directory *path* of a site in a freshly built world
/// by searching from the root (worlds are deterministic, so object
/// identity maps to the same path).
fn path_of_dir(kernel: &Kernel, target: pf_vfs::ObjRef) -> Option<String> {
    fn walk(
        kernel: &Kernel,
        dir: pf_vfs::ObjRef,
        target: pf_vfs::ObjRef,
        prefix: &str,
        depth: usize,
    ) -> Option<String> {
        if dir == target {
            return Some(if prefix.is_empty() {
                "/".into()
            } else {
                prefix.into()
            });
        }
        if depth > 16 {
            return None;
        }
        for name in kernel.vfs.readdir(dir).ok()? {
            if let Ok(Some(child)) = kernel.vfs.dir_lookup(dir, &name) {
                let child = kernel.vfs.redirect(child);
                if kernel.vfs.inode(child).ok()?.kind.is_dir() {
                    let p = format!("{prefix}/{name}");
                    if let Some(hit) = walk(kernel, child, target, &p, depth + 1) {
                        return Some(hit);
                    }
                }
            }
        }
        None
    }
    walk(kernel, kernel.vfs.root(), target, "", 0)
}

/// Phase 2+3: plants a symlink at every recorded site, re-runs the
/// victim, and reports the sites whose bait the victim followed.
///
/// The bait is a symlink to a root-owned canary file; the victim "bit"
/// if the canary's content changed (integrity) or the canary was opened
/// by the victim (checked via the canary inode's firewall log entries).
pub fn test_victim(victim: &dyn Victim) -> PfResult<Vec<Finding>> {
    let sites = record_surface(victim)?;
    let mut findings = Vec::new();
    for site in sites {
        // Fresh world per attempt, with a canary and the bait planted.
        let mut kernel = victim.build();
        let canary =
            kernel.put_file("/etc/sting-canary", b"CANARY", 0o644, Uid::ROOT, Gid::ROOT)?;
        let Some(dir_path) = path_of_dir(&kernel, site.dir) else {
            continue;
        };
        let bait_path = if dir_path == "/" {
            format!("/{}", site.component)
        } else {
            format!("{dir_path}/{}", site.component)
        };
        let adversary = kernel.spawn("user_t", "/bin/sh", ADVERSARY_UID, Gid(ADVERSARY_UID.0));
        if kernel
            .symlink(adversary, "/etc/sting-canary", &bait_path)
            .is_err()
        {
            // Name already exists and cannot be squatted; not plantable.
            continue;
        }
        // Watch the canary through a catch-all LOG rule.
        kernel
            .install_rules(["pftables -o FILE_OPEN -j LOG --tag sting"])
            .unwrap();
        let victim_pid = match victim.run(&mut kernel) {
            Ok(pid) => pid,
            Err(_) => continue, // Failed safely.
        };
        let canary_res = pf_types::ResourceId::File {
            dev: canary.dev,
            ino: canary.ino,
        };
        let canary_touched = kernel
            .firewall
            .drain_logs()
            .entries
            .iter()
            .any(|l| l.pid == victim_pid.0 && l.resource == canary_res.to_string());
        let canary_modified = kernel
            .vfs
            .read(canary)
            .map(|d| d.as_ref() != b"CANARY")
            .unwrap_or(true);
        if canary_touched || canary_modified {
            let entrypoint = site.entrypoint.clone();
            let rule = match &entrypoint {
                Some((prog, pc)) => pf_rulegen::rules_from_vulnerability(&VulnRecord {
                    program: prog.clone(),
                    ept_pc: *pc,
                    op: "LINK_READ".into(),
                    unsafe_is_low_integrity: true,
                }),
                // No entrypoint: fall back to the generic safe_open rule.
                None => "pftables -o LINK_READ -m ADV_ACCESS --write --accessible \
                         -m COMPARE --v1 C_DAC_OWNER --v2 C_TGT_DAC_OWNER --nequal -j DROP"
                    .to_owned(),
            };
            findings.push(Finding {
                victim: victim.name().to_owned(),
                component: site.component.clone(),
                entrypoint,
                rule,
            });
        }
    }
    Ok(findings)
}

/// Replays the attack with the finding's rule installed and reports
/// whether the victim is now protected.
pub fn verify_fix(victim: &dyn Victim, finding: &Finding) -> PfResult<bool> {
    let mut kernel = victim.build();
    let canary = kernel.put_file("/etc/sting-canary", b"CANARY", 0o644, Uid::ROOT, Gid::ROOT)?;
    kernel.install_rules([finding.rule.as_str()])?;
    // Re-plant the same bait (the component under the same directory —
    // found again by name in the fresh world).
    let sites = {
        let mut probe = victim.build();
        probe.record_surface = true;
        let _ = victim.run(&mut probe)?;
        probe.surface
    };
    let adversary = kernel.spawn("user_t", "/bin/sh", ADVERSARY_UID, Gid(ADVERSARY_UID.0));
    // Same query-time resolution as `record_surface`: trust the current
    // adversary model, not the snapshot taken when the probe ran.
    let sites: Vec<_> = sites
        .into_iter()
        .filter(|e| kernel.mac.adversary_writable(e.dir_label))
        .collect();
    for entry in sites.iter() {
        if entry.component != finding.component {
            continue;
        }
        if let Some(dir_path) = path_of_dir(&kernel, entry.dir) {
            let bait = if dir_path == "/" {
                format!("/{}", entry.component)
            } else {
                format!("{dir_path}/{}", entry.component)
            };
            let _ = kernel.symlink(adversary, "/etc/sting-canary", &bait);
        }
    }
    let _ = victim.run(&mut kernel); // May fail — that's the point.
    let touched = kernel
        .vfs
        .read(canary)
        .map(|d| d.as_ref() != b"CANARY")
        .unwrap_or(true);
    Ok(!touched)
}

/// A ready-made vulnerable victim for demos and tests: the E9-style
/// init script writing its state file into /tmp without `O_EXCL`.
pub struct UnsafeInitScript;

impl Victim for UnsafeInitScript {
    fn name(&self) -> &str {
        "unsafe-init-script"
    }

    fn build(&self) -> Kernel {
        pf_os::standard_world()
    }

    fn run(&self, kernel: &mut Kernel) -> PfResult<Pid> {
        let init = kernel.spawn("init_t", "/bin/bash", Uid::ROOT, Gid::ROOT);
        kernel.with_frame(init, "/bin/bash", 0x1f40a, |k| {
            let fd = k.open(init, "/tmp/initstate", OpenFlags::creat(0o644))?;
            k.write(init, fd, b"boot-state: ok\n")?;
            k.close(init, fd)
        })?;
        Ok(init)
    }
}

/// A repaired victim: `O_EXCL` + `O_NOFOLLOW` — STING must find nothing.
pub struct SafeInitScript;

impl Victim for SafeInitScript {
    fn name(&self) -> &str {
        "safe-init-script"
    }

    fn build(&self) -> Kernel {
        pf_os::standard_world()
    }

    fn run(&self, kernel: &mut Kernel) -> PfResult<Pid> {
        let init = kernel.spawn("init_t", "/bin/bash", Uid::ROOT, Gid::ROOT);
        kernel.with_frame(init, "/bin/bash", 0x1f40a, |k| {
            // Remove any stale state file first (by-the-book pattern).
            let _ = k.unlink(init, "/tmp/initstate");
            let mut flags = OpenFlags::creat_excl(0o644);
            flags.nofollow = true;
            let fd = k.open(init, "/tmp/initstate", flags)?;
            k.write(init, fd, b"boot-state: ok\n")?;
            k.close(init, fd)
        })?;
        Ok(init)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn surface_recording_sees_tmp_lookups() {
        let sites = record_surface(&UnsafeInitScript).unwrap();
        assert!(
            sites.iter().any(|s| s.component == "initstate"),
            "the state-file lookup in /tmp is adversary-accessible: {sites:?}"
        );
        // Lookups in trusted directories are not part of the surface.
        assert!(sites.iter().all(|s| s.component != "etc"));
    }

    #[test]
    fn sting_finds_the_init_script_vulnerability() {
        let findings = test_victim(&UnsafeInitScript).unwrap();
        assert_eq!(findings.len(), 1, "{findings:?}");
        let f = &findings[0];
        assert_eq!(f.component, "initstate");
        assert_eq!(
            f.entrypoint.as_ref().map(|(p, pc)| (p.as_str(), *pc)),
            Some(("/bin/bash", 0x1f40a))
        );
    }

    #[test]
    fn derived_rule_blocks_the_replayed_attack() {
        let findings = test_victim(&UnsafeInitScript).unwrap();
        assert!(verify_fix(&UnsafeInitScript, &findings[0]).unwrap());
    }

    #[test]
    fn repaired_victim_yields_no_findings() {
        // The safe pattern unlinks + O_EXCL|O_NOFOLLOW: the planted link
        // is removed or refused, the canary untouched.
        let findings = test_victim(&SafeInitScript).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn baked_surface_bits_go_stale_but_query_time_resolution_tracks_widening() {
        // Regression: surface entries bake `adversary_writable` at record
        // time. When the adversary model widens afterwards (a system-high
        // subject crosses the taint threshold), the baked bit is stale —
        // trusting it silently drops the newly reachable sites.
        let mut kernel = pf_os::standard_world();
        kernel.record_surface = true;
        let init = kernel.spawn("init_t", "/bin/bash", Uid::ROOT, Gid::ROOT);
        let fd = kernel
            .open(init, "/var/log/boot.log", OpenFlags::creat(0o600))
            .unwrap();
        kernel.close(init, fd).unwrap();

        // At record time /var/log is writable only by system-high
        // subjects: the baked bit and the live resolution agree.
        let var_log_t = kernel.mac.lookup_label("var_log_t").unwrap();
        let entry = kernel
            .surface
            .iter()
            .find(|e| e.dir_label == var_log_t)
            .expect("the boot.log lookup searches /var/log");
        assert!(!entry.adversary_writable);
        assert!(!kernel.mac.adversary_writable(var_log_t));

        // A system-high writer of /var/log becomes tainted...
        let httpd_t = kernel.mac.lookup_label("httpd_t").unwrap();
        assert!(kernel.mac.taint_subject(httpd_t));

        // ...the snapshot is now stale by design (it exists to make
        // staleness observable); query-time resolution sees the widening.
        let entry = kernel
            .surface
            .iter()
            .find(|e| e.dir_label == var_log_t)
            .unwrap();
        assert!(!entry.adversary_writable, "snapshot must not mutate");
        assert!(
            kernel.mac.adversary_writable(var_log_t),
            "query-time resolution tracks the widened adversary model"
        );
    }

    #[test]
    fn vulnerable_and_safe_victims_share_the_surface() {
        // STING probes both the vulnerable and safe victims at the same
        // site; only the vulnerable one bites.
        let unsafe_sites = record_surface(&UnsafeInitScript).unwrap();
        let safe_sites = record_surface(&SafeInitScript).unwrap();
        assert!(unsafe_sites.iter().any(|s| s.component == "initstate"));
        assert!(safe_sites.iter().any(|s| s.component == "initstate"));
    }
}
