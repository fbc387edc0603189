//! The MAC policy: types, allow rules, file contexts, adversary queries.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use pf_types::{Interner, SecId};

use crate::origin::TAINT_THRESHOLD;

/// A MAC access kind, mirroring the DAC triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Observe contents (secrecy-relevant).
    Read,
    /// Modify contents or metadata (integrity-relevant).
    Write,
    /// Execute / traverse.
    Exec,
}

/// A small permission bit set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PermSet(pub u8);

impl PermSet {
    /// Read permission.
    pub const READ: PermSet = PermSet(0b001);
    /// Write permission.
    pub const WRITE: PermSet = PermSet(0b010);
    /// Execute permission.
    pub const EXEC: PermSet = PermSet(0b100);
    /// Read + write + exec.
    pub const RWX: PermSet = PermSet(0b111);
    /// Read + exec (the common "use" set).
    pub const RX: PermSet = PermSet(0b101);
    /// Read + write.
    pub const RW: PermSet = PermSet(0b011);

    /// Set union.
    pub fn union(self, other: PermSet) -> PermSet {
        PermSet(self.0 | other.0)
    }

    /// Returns `true` if `access` is granted by this set.
    pub fn permits(self, access: Access) -> bool {
        let bit = match access {
            Access::Read => Self::READ.0,
            Access::Write => Self::WRITE.0,
            Access::Exec => Self::EXEC.0,
        };
        self.0 & bit != 0
    }
}

/// The policy store plus its query caches.
///
/// # Examples
///
/// ```
/// use pf_mac::{Access, MacPolicy, PermSet};
///
/// let mut p = MacPolicy::new();
/// let user = p.declare_subject("user_t");
/// let sshd = p.declare_subject("sshd_t");
/// let tmp = p.declare_object("tmp_t");
/// let etc = p.declare_object("etc_t");
/// p.add_to_syshigh(sshd);
/// p.add_to_syshigh(etc);
/// p.allow(user, tmp, PermSet::RWX);
/// p.allow(sshd, etc, PermSet::RW);
///
/// // `tmp_t` is writable by the untrusted `user_t`, so it is
/// // adversary-accessible; `etc_t` is only reachable from the TCB.
/// assert!(p.adversary_writable(tmp));
/// assert!(!p.adversary_writable(etc));
/// ```
#[derive(Debug)]
pub struct MacPolicy {
    labels: Interner,
    subjects: HashSet<SecId>,
    objects: HashSet<SecId>,
    allow: HashMap<(SecId, SecId), PermSet>,
    syshigh: HashSet<SecId>,
    file_contexts: Vec<(String, SecId)>,
    default_label: SecId,
    /// `true` = MAC denials block; `false` (default) = permissive.
    pub enforcing: bool,
    /// Monotone adversary-model generation. Bumped on every mutation
    /// that can change adversary accessibility — policy edits *and*
    /// runtime taint transitions — so cached accessibility answers can
    /// be validated (and per-task verdict caches invalidated) without
    /// ever handing out a stale bit.
    adv_generation: AtomicU64,
    adv_write_cache: Mutex<AdvCache>,
    adv_read_cache: Mutex<AdvCache>,
    /// Subject labels whose origin crossed [`TAINT_THRESHOLD`] at
    /// runtime: they count as adversarial even when inside SYSHIGH.
    tainted: Mutex<HashSet<SecId>>,
}

/// A generation-stamped accessibility cache. The map is only trusted
/// while its stamp matches the policy's `adv_generation`; a stale stamp
/// means some policy edit or taint transition happened since the
/// entries were computed, so the whole map is discarded first.
#[derive(Debug, Default)]
struct AdvCache {
    generation: u64,
    map: HashMap<SecId, bool>,
}

impl AdvCache {
    /// Looks up (or computes and caches) the answer for `object`,
    /// discarding the map first if `generation` moved on.
    fn lookup(&mut self, generation: u64, object: SecId, compute: impl FnOnce() -> bool) -> bool {
        if self.generation != generation {
            self.map.clear();
            self.generation = generation;
        }
        if let Some(&v) = self.map.get(&object) {
            return v;
        }
        let v = compute();
        self.map.insert(object, v);
        v
    }
}

impl Default for MacPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl MacPolicy {
    /// Creates an empty permissive policy with a `default_t` label.
    pub fn new() -> Self {
        let mut labels = Interner::new();
        let default_label = labels.intern("default_t");
        MacPolicy {
            labels,
            subjects: HashSet::new(),
            objects: HashSet::new(),
            allow: HashMap::new(),
            syshigh: HashSet::new(),
            file_contexts: Vec::new(),
            default_label,
            enforcing: false,
            adv_generation: AtomicU64::new(1),
            adv_write_cache: Mutex::new(AdvCache::default()),
            adv_read_cache: Mutex::new(AdvCache::default()),
            tainted: Mutex::new(HashSet::new()),
        }
    }

    /// Invalidation = generation bump. The cached maps themselves are
    /// lazily discarded on the next query that observes the new stamp,
    /// which keeps this callable from `&self` contexts (runtime taint
    /// transitions race with concurrent accessibility queries).
    fn invalidate_caches(&mut self) {
        self.bump_adversary_generation();
    }

    fn bump_adversary_generation(&self) {
        self.adv_generation.fetch_add(1, Ordering::Release);
    }

    /// The current adversary-model generation. Consumers that cache
    /// anything derived from adversary accessibility (per-task verdict
    /// caches, baked surface bits) must re-validate against this.
    pub fn adversary_generation(&self) -> u64 {
        self.adv_generation.load(Ordering::Acquire)
    }

    /// Marks a subject label as tainted (its origin crossed
    /// [`TAINT_THRESHOLD`]), widening adversary accessibility: every
    /// object writable/readable by this subject becomes
    /// adversary-accessible on the next query. Returns `true` iff the
    /// label was not already tainted (a *widening* transition); the
    /// adversary generation is bumped only in that case, so widening
    /// accounting stays exact. Taint is monotone — there is no untaint.
    pub fn taint_subject(&self, sid: SecId) -> bool {
        let newly = self
            .tainted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(sid);
        if newly {
            self.bump_adversary_generation();
        }
        newly
    }

    /// Returns `true` if the subject label has crossed the taint
    /// threshold at runtime.
    pub fn is_tainted(&self, sid: SecId) -> bool {
        self.tainted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&sid)
    }

    /// Number of runtime-tainted subject labels.
    pub fn tainted_count(&self) -> usize {
        self.tainted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// The origin level at which a subject label starts counting as
    /// adversarial (re-exported for propagation call sites).
    pub const TAINT_THRESHOLD: u64 = TAINT_THRESHOLD;

    /// Interns (or looks up) a label name.
    pub fn intern_label(&mut self, name: &str) -> SecId {
        self.labels.intern(name)
    }

    /// Looks up a label without interning.
    pub fn lookup_label(&self, name: &str) -> Option<SecId> {
        self.labels.get(name)
    }

    /// The label name for a `SecId`.
    pub fn label_name(&self, sid: SecId) -> &str {
        self.labels.resolve(sid)
    }

    /// The label name for a `SecId` as the policy's own shared copy: a
    /// reference-count bump, no allocation. Labels are never renamed or
    /// removed, so the handle names the same label for as long as it
    /// lives.
    pub fn label_shared(&self, sid: SecId) -> Arc<str> {
        self.labels.resolve_shared(sid)
    }

    /// The fallback label for paths with no file-context match.
    pub fn default_label(&self) -> SecId {
        self.default_label
    }

    /// Declares a subject (process) type.
    pub fn declare_subject(&mut self, name: &str) -> SecId {
        let sid = self.intern_label(name);
        self.subjects.insert(sid);
        self.invalidate_caches();
        sid
    }

    /// Declares an object (resource) type.
    pub fn declare_object(&mut self, name: &str) -> SecId {
        let sid = self.intern_label(name);
        self.objects.insert(sid);
        sid
    }

    /// Adds a label to the SYSHIGH (TCB) set.
    pub fn add_to_syshigh(&mut self, sid: SecId) {
        self.syshigh.insert(sid);
        self.invalidate_caches();
    }

    /// Returns `true` if the label is in the TCB.
    pub fn is_syshigh(&self, sid: SecId) -> bool {
        self.syshigh.contains(&sid)
    }

    /// All SYSHIGH labels (for expanding `SYSHIGH` in rules).
    pub fn syshigh_set(&self) -> Vec<SecId> {
        let mut v: Vec<SecId> = self.syshigh.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Grants `perms` from `subject` to `object`.
    pub fn allow(&mut self, subject: SecId, object: SecId, perms: PermSet) {
        let entry = self.allow.entry((subject, object)).or_default();
        *entry = entry.union(perms);
        self.invalidate_caches();
    }

    /// MAC decision: does `subject` have `access` to `object`?
    ///
    /// In permissive mode this is still computed (callers may log it) but
    /// `authorize` never fails.
    pub fn decides(&self, subject: SecId, object: SecId, access: Access) -> bool {
        self.allow
            .get(&(subject, object))
            .map(|p| p.permits(access))
            .unwrap_or(false)
    }

    /// The enforcement entry point used by the kernel layer.
    pub fn authorize(&self, subject: SecId, object: SecId, access: Access) -> bool {
        !self.enforcing || self.decides(subject, object, access)
    }

    /// Registers a file context: `prefix` (a path) maps to `label`.
    ///
    /// An exact-path context beats a prefix context; among prefixes the
    /// longest wins, mirroring SELinux `file_contexts` precedence.
    pub fn add_file_context(&mut self, prefix: &str, label: &str) {
        let sid = self.intern_label(label);
        self.objects.insert(sid);
        self.file_contexts.push((prefix.to_owned(), sid));
    }

    /// The label a new or relabeled inode at `path` receives.
    pub fn label_for_path(&self, path: &str) -> SecId {
        let mut best: Option<(usize, SecId)> = None;
        for (prefix, sid) in &self.file_contexts {
            let matches = path == prefix
                || (path.starts_with(prefix)
                    && (prefix.ends_with('/') || path.as_bytes().get(prefix.len()) == Some(&b'/')));
            if matches {
                let score = prefix.len();
                if best.map(|(s, _)| score > s).unwrap_or(true) {
                    best = Some((score, *sid));
                }
            }
        }
        best.map(|(_, sid)| sid).unwrap_or(self.default_label)
    }

    /// Is `object` writable by any subject outside the TCB?
    ///
    /// This is the integrity half of adversary accessibility: a `true`
    /// answer means an adversary can have *planted or modified* the
    /// resource. Results are cached until the policy changes.
    pub fn adversary_writable(&self, object: SecId) -> bool {
        let generation = self.adversary_generation();
        self.adv_write_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(generation, object, || {
                self.scan_adversary(object, Access::Write)
            })
    }

    /// Is `object` readable by any subject outside the TCB?
    ///
    /// The secrecy half: `true` means leaking the resource to an adversary
    /// is *not* a new disclosure. High-secrecy files (e.g. `shadow_t`)
    /// answer `false`.
    pub fn adversary_readable(&self, object: SecId) -> bool {
        let generation = self.adversary_generation();
        self.adv_read_cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(generation, object, || {
                self.scan_adversary(object, Access::Read)
            })
    }

    /// A subject counts as adversarial if it sits outside the TCB *or*
    /// its origin crossed the taint threshold at runtime (the OAMAC
    /// widening: compromise makes yesterday's trusted worker an
    /// adversary today).
    fn scan_adversary(&self, object: SecId, access: Access) -> bool {
        let tainted = self.tainted.lock().unwrap_or_else(PoisonError::into_inner);
        self.subjects
            .iter()
            .filter(|s| !self.syshigh.contains(s) || tainted.contains(s))
            .any(|&s| self.decides(s, object, access))
    }

    /// Convenience classification used by rule generation: an object label
    /// is *low integrity* iff adversary-writable.
    pub fn is_low_integrity(&self, object: SecId) -> bool {
        self.adversary_writable(object)
    }

    /// Number of declared subject types.
    pub fn subject_count(&self) -> usize {
        self.subjects.len()
    }

    /// Returns `true` if the label was declared as a subject type.
    pub fn is_subject(&self, sid: SecId) -> bool {
        self.subjects.contains(&sid)
    }

    /// Returns `true` if the label was declared as an object type.
    pub fn is_object(&self, sid: SecId) -> bool {
        self.objects.contains(&sid)
    }

    /// Iterates over all known labels in interning order.
    pub fn labels_iter(&self) -> impl Iterator<Item = (SecId, &str)> {
        self.labels.iter()
    }

    /// Iterates over allow rules in stable (sorted) order.
    pub fn allow_iter(&self) -> Vec<(SecId, SecId, PermSet)> {
        let mut v: Vec<(SecId, SecId, PermSet)> =
            self.allow.iter().map(|(&(s, o), &p)| (s, o, p)).collect();
        v.sort_by_key(|&(s, o, _)| (s, o));
        v
    }

    /// Iterates over registered file contexts in registration order.
    pub fn file_contexts_iter(&self) -> impl Iterator<Item = (&str, SecId)> {
        self.file_contexts.iter().map(|(p, s)| (p.as_str(), *s))
    }
}

/// Builds the miniature Ubuntu 10.04-flavoured policy used throughout the
/// experiments.
///
/// The policy declares the subject/object types the paper's Table 5 rules
/// reference, marks the system TCB as SYSHIGH, grants the untrusted
/// `user_t` subject write access to the classic adversary-controlled
/// places (`/tmp`, home directories, user web content), and installs file
/// contexts for the standard filesystem layout.
pub fn ubuntu_mini() -> MacPolicy {
    let mut p = MacPolicy::new();

    // Subject types.
    let kernel = p.declare_subject("kernel_t");
    let init = p.declare_subject("init_t");
    let sshd = p.declare_subject("sshd_t");
    let httpd = p.declare_subject("httpd_t");
    let dbusd = p.declare_subject("system_dbusd_t");
    let staff = p.declare_subject("staff_t");
    let user = p.declare_subject("user_t"); // The untrusted user.

    // Object types.
    let objects: &[&str] = &[
        "bin_t",
        "lib_t",
        "textrel_shlib_t",
        "httpd_modules_t",
        "usr_t",
        "etc_t",
        "shadow_t",
        "tmp_t",
        "var_t",
        "var_run_t",
        "var_log_t",
        "system_dbusd_var_run_t",
        "httpd_sys_content_t",
        "httpd_user_script_exec_t",
        "httpd_user_content_t",
        "httpd_config_t",
        "user_home_t",
        "user_tmp_t",
        "root_t",
        "init_var_run_t",
        "java_conf_t",
    ];
    let mut sid = HashMap::new();
    for name in objects {
        sid.insert(*name, p.declare_object(name));
    }

    // The TCB: system subjects plus the object types only they may write.
    for s in [kernel, init, sshd, httpd, dbusd, staff] {
        p.add_to_syshigh(s);
    }
    for name in [
        "bin_t",
        "lib_t",
        "textrel_shlib_t",
        "httpd_modules_t",
        "usr_t",
        "etc_t",
        "shadow_t",
        "var_run_t",
        "system_dbusd_var_run_t",
        "httpd_config_t",
        "root_t",
        "init_var_run_t",
        "java_conf_t",
        "httpd_sys_content_t",
    ] {
        p.add_to_syshigh(sid[name]);
    }

    // TCB subjects can use the system.
    for s in [kernel, init, sshd, httpd, dbusd, staff] {
        for name in objects {
            // Writes to shadow_t are restricted to init/sshd below.
            if *name == "shadow_t" {
                continue;
            }
            p.allow(s, sid[name], PermSet::RX);
        }
        p.allow(s, sid["var_run_t"], PermSet::RWX);
        p.allow(s, sid["var_log_t"], PermSet::RWX);
        p.allow(s, sid["tmp_t"], PermSet::RWX);
    }
    p.allow(init, sid["shadow_t"], PermSet::RW);
    p.allow(sshd, sid["shadow_t"], PermSet::RW);
    p.allow(dbusd, sid["system_dbusd_var_run_t"], PermSet::RWX);
    p.allow(httpd, sid["httpd_sys_content_t"], PermSet::RX);
    p.allow(httpd, sid["httpd_user_script_exec_t"], PermSet::RX);
    p.allow(httpd, sid["httpd_user_content_t"], PermSet::RX);

    // The untrusted user: write access to the adversary-controlled types.
    for name in [
        "tmp_t",
        "user_home_t",
        "user_tmp_t",
        "httpd_user_script_exec_t",
        "httpd_user_content_t",
    ] {
        p.allow(user, sid[name], PermSet::RWX);
    }
    for name in ["bin_t", "lib_t", "usr_t", "etc_t", "var_t", "var_log_t"] {
        p.allow(user, sid[name], PermSet::RX);
    }

    // File contexts (longest prefix wins).
    for (prefix, label) in [
        ("/bin", "bin_t"),
        ("/usr/bin", "bin_t"),
        ("/sbin", "bin_t"),
        ("/lib", "lib_t"),
        ("/usr/lib", "lib_t"),
        ("/usr/lib/apache2/modules", "httpd_modules_t"),
        ("/usr/share", "usr_t"),
        ("/usr", "usr_t"),
        ("/etc", "etc_t"),
        ("/etc/shadow", "shadow_t"),
        ("/etc/apache2", "httpd_config_t"),
        ("/etc/java", "java_conf_t"),
        ("/tmp", "tmp_t"),
        ("/var", "var_t"),
        ("/var/run", "var_run_t"),
        ("/var/log", "var_log_t"),
        ("/var/run/dbus", "system_dbusd_var_run_t"),
        ("/var/run/init", "init_var_run_t"),
        ("/var/www", "httpd_sys_content_t"),
        ("/var/www/components", "httpd_user_script_exec_t"),
        ("/home", "user_home_t"),
        ("/root", "root_t"),
    ] {
        p.add_file_context(prefix, label);
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permset_operations() {
        assert!(PermSet::RWX.permits(Access::Write));
        assert!(!PermSet::RX.permits(Access::Write));
        assert_eq!(PermSet::READ.union(PermSet::WRITE), PermSet::RW);
    }

    #[test]
    fn file_contexts_longest_prefix_wins() {
        let p = ubuntu_mini();
        let shadow = p.lookup_label("shadow_t").unwrap();
        let etc = p.lookup_label("etc_t").unwrap();
        assert_eq!(p.label_for_path("/etc/shadow"), shadow);
        assert_eq!(p.label_for_path("/etc/passwd"), etc);
        assert_eq!(
            p.label_for_path("/var/run/dbus/system_bus_socket"),
            p.lookup_label("system_dbusd_var_run_t").unwrap()
        );
    }

    #[test]
    fn prefix_must_match_component_boundary() {
        let mut p = MacPolicy::new();
        p.add_file_context("/var/www", "www_t");
        let www = p.lookup_label("www_t").unwrap();
        assert_eq!(p.label_for_path("/var/www/index.html"), www);
        assert_eq!(p.label_for_path("/var/wwwroot/x"), p.default_label());
    }

    #[test]
    fn adversary_accessibility_of_shipped_policy() {
        let p = ubuntu_mini();
        let tmp = p.lookup_label("tmp_t").unwrap();
        let lib = p.lookup_label("lib_t").unwrap();
        let shadow = p.lookup_label("shadow_t").unwrap();
        let home = p.lookup_label("user_home_t").unwrap();
        assert!(p.adversary_writable(tmp), "/tmp is adversary-writable");
        assert!(p.adversary_writable(home));
        assert!(!p.adversary_writable(lib), "libraries are TCB-only");
        assert!(!p.adversary_readable(shadow), "shadow is high secrecy");
        assert!(p.adversary_readable(lib), "libraries are world-readable");
    }

    #[test]
    fn enforcing_mode_blocks_unauthorized() {
        let mut p = MacPolicy::new();
        let s = p.declare_subject("a_t");
        let o = p.declare_object("b_t");
        assert!(p.authorize(s, o, Access::Read), "permissive allows");
        p.enforcing = true;
        assert!(!p.authorize(s, o, Access::Read));
        p.allow(s, o, PermSet::READ);
        assert!(p.authorize(s, o, Access::Read));
        assert!(!p.authorize(s, o, Access::Write));
    }

    #[test]
    fn growing_tcb_never_increases_adversary_access() {
        let mut p = MacPolicy::new();
        let a = p.declare_subject("a_t");
        let b = p.declare_subject("b_t");
        let o = p.declare_object("o_t");
        p.allow(a, o, PermSet::WRITE);
        p.allow(b, o, PermSet::WRITE);
        assert!(p.adversary_writable(o));
        p.add_to_syshigh(a);
        assert!(p.adversary_writable(o), "b_t still outside TCB");
        p.add_to_syshigh(b);
        assert!(!p.adversary_writable(o), "all writers now trusted");
    }

    #[test]
    fn cache_invalidation_on_policy_change() {
        let mut p = MacPolicy::new();
        let s = p.declare_subject("s_t");
        let o = p.declare_object("o_t");
        assert!(!p.adversary_writable(o)); // Cached as false.
        p.allow(s, o, PermSet::WRITE);
        assert!(p.adversary_writable(o), "cache must be invalidated");
    }

    #[test]
    fn syshigh_set_is_sorted_and_deduped() {
        let p = ubuntu_mini();
        let set = p.syshigh_set();
        let mut sorted = set.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(set, sorted);
        assert!(set.contains(&p.lookup_label("lib_t").unwrap()));
    }

    #[test]
    fn tainting_a_syshigh_subject_widens_adversary_access() {
        let p = ubuntu_mini();
        let httpd = p.lookup_label("httpd_t").unwrap();
        let config = p.lookup_label("httpd_config_t").unwrap();
        let lib = p.lookup_label("lib_t").unwrap();
        let gen0 = p.adversary_generation();

        // Pre-compromise: config is TCB-only, so not adversary-writable.
        // (httpd_t has only RX on it, but RWX on tmp/var_run/var_log —
        // use var_log_t, which only TCB subjects may write.)
        let var_log = p.lookup_label("var_log_t").unwrap();
        assert!(!p.adversary_writable(var_log));
        assert!(!p.adversary_writable(config));

        // httpd_t consumes adversary-controlled input → tainted.
        assert!(p.taint_subject(httpd), "first taint is a widening");
        assert!(!p.taint_subject(httpd), "taint is idempotent");
        assert!(p.is_tainted(httpd));
        assert_eq!(p.adversary_generation(), gen0 + 1, "exactly one bump");

        // Widened: everything httpd_t can write is now reachable by an
        // adversary; read-only grants do not become writable.
        assert!(p.adversary_writable(var_log));
        assert!(!p.adversary_writable(config), "RX grant stays unwritable");
        assert!(!p.adversary_writable(lib));
    }

    #[test]
    fn concurrent_taint_and_accessibility_queries_do_not_race() {
        use std::sync::Arc;

        // Regression: the old RefCell caches panicked (or corrupted)
        // under exactly this pattern — shared policy, one thread
        // mutating accessibility via taint while others query.
        let p = Arc::new(ubuntu_mini());
        let subjects: Vec<SecId> = ["httpd_t", "sshd_t", "staff_t", "system_dbusd_t"]
            .iter()
            .map(|n| p.lookup_label(n).unwrap())
            .collect();
        let objects: Vec<SecId> = ["tmp_t", "var_log_t", "etc_t", "lib_t", "shadow_t"]
            .iter()
            .map(|n| p.lookup_label(n).unwrap())
            .collect();

        let mut handles = Vec::new();
        for t in 0..8usize {
            let p = Arc::clone(&p);
            let subjects = subjects.clone();
            let objects = objects.clone();
            handles.push(std::thread::spawn(move || {
                let mut widenings = 0u64;
                for i in 0..2000usize {
                    let o = objects[(i + t) % objects.len()];
                    // Queries must never panic or deadlock while taint
                    // transitions land concurrently.
                    let _ = p.adversary_writable(o);
                    let _ = p.adversary_readable(o);
                    if i % 503 == 0 {
                        let s = subjects[(i / 503 + t) % subjects.len()];
                        if p.taint_subject(s) {
                            widenings += 1;
                        }
                    }
                }
                widenings
            }));
        }
        let total_widenings: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

        // Exactly one widening per distinct label, no matter how many
        // threads raced to taint it.
        assert_eq!(total_widenings, subjects.len() as u64);
        assert_eq!(p.tainted_count(), subjects.len());
        // Post-join, every queried answer reflects the fully widened
        // model: staff_t writes user_home_t, httpd_t writes var_log_t.
        assert!(p.adversary_writable(p.lookup_label("var_log_t").unwrap()));
        assert!(p.adversary_writable(p.lookup_label("var_run_t").unwrap()));
    }
}
