//! Race scenarios for the interleaving explorer, and the system-only
//! baseline comparison.
//!
//! Two claims from the paper become machine-checked here:
//!
//! 1. **TOCTTOU defenses must be schedule-independent.** The explorer
//!    enumerates *every* victim/adversary interleaving: unprotected, at
//!    least one schedule wins; with the STATE rules, none does.
//! 2. **System-only defenses false-positive without process context**
//!    (Section 2.2, citing Cai et al.). The Openwall-style symlink
//!    restriction blocks the attack *and* a legitimate workflow; the
//!    Process Firewall rule — which can compare the link's owner with
//!    the target's owner per resolution step — blocks only the attack.

use pf_os::sched::RaceScenario;
use pf_os::{standard_world, Kernel, OpenFlags};
use pf_types::{Gid, PfResult, Pid, Uid};

use crate::ruleset::{R5, R6, SAFE_OPEN};

/// The D-Bus bind/chmod TOCTTOU (E6) as an explorable race.
///
/// Victim: `bind` then `chmod` (the check/use pair). Adversary: `unlink`
/// then `bind` their own socket at the same name. The attack wins when
/// the daemon's chmod opens up the adversary's socket.
pub struct DbusChmodRace {
    /// Install rules R5/R6 before running.
    pub protected: bool,
}

const DBUS: &str = "/bin/dbus-daemon";
const SOCK: &str = "/tmp/dbus-session/bus";

/// Pids are deterministic: the daemon is spawned first, the adversary
/// second, in `build`.
const DAEMON: Pid = Pid(1);
const ADVERSARY: Pid = Pid(2);

impl RaceScenario for DbusChmodRace {
    fn build(&self) -> Kernel {
        let mut k = standard_world();
        if self.protected {
            k.install_rules([R5, R6]).unwrap();
        }
        let daemon = k.spawn("system_dbusd_t", DBUS, Uid::ROOT, Gid::ROOT);
        let _adversary = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.mkdir(daemon, "/tmp/dbus-session", 0o777).unwrap();
        k
    }

    fn victim_steps(&self) -> usize {
        2
    }

    fn victim_step(&self, k: &mut Kernel, i: usize) -> PfResult<()> {
        match i {
            0 => k.with_frame(DAEMON, DBUS, 0x3c750, |k| {
                k.bind_unix(DAEMON, SOCK, 0o600).map(|_| ())
            }),
            _ => {
                // A real daemon aborts when its bind failed (e.g. the
                // name was squatted first); only the successful-bind
                // path reaches the chmod.
                if k.task(DAEMON)?.fds.is_empty() {
                    return Err(pf_types::PfError::InvalidArgument(
                        "daemon aborted: bind failed".into(),
                    ));
                }
                k.with_frame(DAEMON, DBUS, 0x3c786, |k| k.chmod(DAEMON, SOCK, 0o666))
            }
        }
    }

    fn adversary_steps(&self) -> usize {
        2
    }

    fn adversary_step(&self, k: &mut Kernel, i: usize) -> PfResult<()> {
        match i {
            0 => k.unlink(ADVERSARY, SOCK),
            _ => k.bind_unix(ADVERSARY, SOCK, 0o600).map(|_| ()),
        }
    }

    fn attack_succeeded(&self, k: &Kernel) -> bool {
        // The adversary's socket ended up mode 0666 (clients will trust it).
        k.lookup(SOCK)
            .and_then(|obj| k.vfs.inode(obj).cloned())
            .map(|inode| inode.uid == Uid(1000) && inode.mode.0 == 0o666)
            .unwrap_or(false)
    }
}

/// The classic `lstat`-then-`open` TOCTTOU (Figure 1(a) lines 3–6) as an
/// explorable race: the victim checks, the adversary swaps the file for
/// a symlink to the shadow file, the victim opens.
pub struct CheckUseRace {
    /// Install the generic safe_open rule before running.
    pub protected: bool,
}

const VICTIM: Pid = Pid(1);
const SWAPPER: Pid = Pid(2);
const WORK: &str = "/tmp/workfile";

impl RaceScenario for CheckUseRace {
    fn build(&self) -> Kernel {
        let mut k = standard_world();
        if self.protected {
            k.install_rules([SAFE_OPEN]).unwrap();
        }
        // A LOG tap (never blocks) lets the judge see what the victim
        // actually opened.
        k.install_rules(["pftables -o FILE_OPEN -j LOG --tag race"])
            .unwrap();
        let _victim = k.spawn("init_t", "/sbin/jobd", Uid::ROOT, Gid::ROOT);
        let swapper = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        // The work file starts as the adversary's own regular file.
        k.put_file(WORK, b"job", 0o666, Uid(1000), Gid(1000))
            .unwrap();
        let _ = swapper;
        k
    }

    fn victim_steps(&self) -> usize {
        2
    }

    fn victim_step(&self, k: &mut Kernel, i: usize) -> PfResult<()> {
        match i {
            0 => {
                // Check: refuse symlinks.
                let st = k.lstat(VICTIM, WORK)?;
                if st.is_symlink() {
                    return Err(pf_types::PfError::PermissionDenied("is a link".into()));
                }
                Ok(())
            }
            _ => {
                // Use: open and read (the secret leak happens here).
                let fd = k.open(VICTIM, WORK, OpenFlags::rdonly())?;
                let _ = k.read(VICTIM, fd)?;
                k.close(VICTIM, fd)
            }
        }
    }

    fn adversary_steps(&self) -> usize {
        2
    }

    fn adversary_step(&self, k: &mut Kernel, i: usize) -> PfResult<()> {
        match i {
            0 => k.unlink(SWAPPER, WORK),
            _ => k.symlink(SWAPPER, "/etc/shadow", WORK).map(|_| ()),
        }
    }

    fn attack_succeeded(&self, k: &Kernel) -> bool {
        // Success = the victim's `use` step opened the shadow file; the
        // LOG tap installed in `build` recorded exactly what it opened.
        k.firewall.drain_logs().entries.iter().any(|l| {
            l.pid == VICTIM.0 && l.op == pf_types::LsmOperation::FileOpen && l.object == "shadow_t"
        })
    }
}

/// The system-only-vs-process-firewall comparison matrix.
///
/// Returns `(attack_blocked, legit_blocked)` for the given defense.
pub fn symlink_defense_matrix(defense: Defense) -> (bool, bool) {
    // Case 1: the attack — adversary A plants /tmp/report -> /etc/shadow,
    // the root daemon opens it.
    let attack_blocked = {
        let mut k = world_with(defense);
        let a = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.symlink(a, "/etc/shadow", "/tmp/report").unwrap();
        let daemon = k.spawn("init_t", "/sbin/daemon", Uid::ROOT, Gid::ROOT);
        k.open(daemon, "/tmp/report", OpenFlags::creat(0o644))
            .is_err()
    };
    // Case 2: the legitimate workflow — user A leaves a link to A's OWN
    // file for the (by-design) spooler to pick up.
    let legit_blocked = {
        let mut k = world_with(defense);
        let a = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.put_file("/home/user/print.txt", b"doc", 0o644, Uid(1000), Gid(1000))
            .unwrap();
        k.symlink(a, "/home/user/print.txt", "/tmp/spool-job")
            .unwrap();
        let spooler = k.spawn("init_t", "/usr/sbin/lpd", Uid::ROOT, Gid::ROOT);
        k.open(spooler, "/tmp/spool-job", OpenFlags::rdonly())
            .is_err()
    };
    (attack_blocked, legit_blocked)
}

/// Which defense to enable for [`symlink_defense_matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Defense {
    /// Nothing.
    None,
    /// The Openwall-style kernel restriction (system-only, no context).
    SystemOnly,
    /// The Process Firewall safe_open rule (owner-compare per step).
    ProcessFirewall,
}

fn world_with(defense: Defense) -> Kernel {
    let mut k = standard_world();
    match defense {
        Defense::None => {}
        Defense::SystemOnly => k.symlink_protection = true,
        Defense::ProcessFirewall => {
            k.install_rules([SAFE_OPEN]).unwrap();
        }
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_os::sched::explore;

    #[test]
    fn dbus_race_has_a_winning_schedule_unprotected() {
        let report = explore(&DbusChmodRace { protected: false });
        assert_eq!(report.total(), 6); // C(4,2)
        assert!(report.wins() >= 1, "the race window is real");
        assert!(
            report.wins() < report.total(),
            "not every schedule wins (the window is between bind and chmod)"
        );
    }

    #[test]
    fn dbus_race_is_schedule_independent_under_rules() {
        let report = explore(&DbusChmodRace { protected: true });
        assert!(report.race_free(), "no interleaving beats R5/R6");
        assert!(
            report.firewall_blocks() >= 1,
            "the losing schedules are losing *because* the firewall dropped"
        );
    }

    #[test]
    fn check_use_race_explored() {
        let unprotected = explore(&CheckUseRace { protected: false });
        assert!(unprotected.wins() >= 1, "lstat/open window exploitable");
        let protected = explore(&CheckUseRace { protected: true });
        assert!(protected.race_free());
    }

    #[test]
    fn system_only_defense_false_positives_where_pf_does_not() {
        let (atk, legit) = symlink_defense_matrix(Defense::None);
        assert!(!atk && !legit, "no defense: attack succeeds, legit works");
        let (atk, legit) = symlink_defense_matrix(Defense::SystemOnly);
        assert!(atk, "openwall blocks the attack");
        assert!(legit, "…but also the legitimate workflow: false positive");
        let (atk, legit) = symlink_defense_matrix(Defense::ProcessFirewall);
        assert!(atk, "the PF rule blocks the attack");
        assert!(!legit, "…and spares the legitimate link (owner match)");
    }
}
