//! The kernel: authorization pipeline, PF hook plumbing, process table.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use pf_core::{
    EvalEnv, FaultInjector, FaultyEnv, ObjectInfo, ProcessFirewall, SignalInfo, CONCACHE_SLOTS,
};
use pf_mac::{Access, MacPolicy};
use pf_types::{
    Gid, Interner, LsmOperation, PfError, PfResult, Pid, ProgramId, ResourceId, SecId, SyscallNr,
    Uid,
};
use pf_vfs::{
    dac_permits, resolve, AccessKind, InodeKind, ObjRef, ResolveEvent, ResolveOpts, Resolved, Vfs,
};

use crate::task::{Frame, Task};

/// `open(2)` flag set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if missing (`O_CREAT`).
    pub create: bool,
    /// With `create`: fail if the name exists (`O_EXCL`).
    pub excl: bool,
    /// Do not follow a final symlink (`O_NOFOLLOW`).
    pub nofollow: bool,
    /// Creation mode bits.
    pub mode: u16,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> Self {
        OpenFlags {
            read: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY`.
    pub fn wronly() -> Self {
        OpenFlags {
            write: true,
            ..Default::default()
        }
    }

    /// `O_RDONLY | O_NOFOLLOW`.
    pub fn rdonly_nofollow() -> Self {
        OpenFlags {
            read: true,
            nofollow: true,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT` with the given mode.
    pub fn creat(mode: u16) -> Self {
        OpenFlags {
            write: true,
            create: true,
            mode,
            ..Default::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_EXCL` with the given mode.
    pub fn creat_excl(mode: u16) -> Self {
        OpenFlags {
            write: true,
            create: true,
            excl: true,
            mode,
            ..Default::default()
        }
    }
}

/// The simulated kernel.
///
/// Owns the VFS, the MAC policy, the interned program namespace, the
/// process table, and the Process Firewall. Syscalls live in
/// [`crate::syscalls`]; setup helpers (which bypass the authorization
/// pipeline, like `mkfs` would) live here.
pub struct Kernel {
    /// The filesystem namespace.
    pub vfs: Vfs,
    /// The MAC policy (drives adversary accessibility).
    pub mac: MacPolicy,
    /// Interned program paths shared by tasks, frames, and rules.
    pub programs: Interner,
    /// The Process Firewall. Shared behind an `Arc` so many kernels
    /// (one per stress-harness thread) can evaluate hooks against one
    /// rule base concurrently; each task reaches it through its own
    /// lock-free [`pf_core::TaskSession`].
    pub firewall: Arc<ProcessFirewall>,
    pub(crate) tasks: HashMap<Pid, Task>,
    next_pid: u32,
    pub(crate) clock: u64,
    /// Stack-unwind frame limit (the §4.4 DoS guard).
    pub frame_limit: usize,
    /// When `true`, the kernel enforces the Openwall-style *system-only*
    /// symlink restriction: in a sticky world-writable directory, a
    /// symlink may be followed only by its owner or when the link owner
    /// matches the directory owner. This is the baseline defense the
    /// paper contrasts with (Section 2.2): effective against planted
    /// links, but prone to false positives because it cannot see process
    /// context.
    pub symlink_protection: bool,
    /// When `true`, every pathname-resolution step is recorded in
    /// [`Kernel::surface`] — the attack-surface log STING-style
    /// vulnerability testing consumes.
    pub record_surface: bool,
    /// Recorded resolution steps (see [`SurfaceEntry`]).
    pub surface: Vec<SurfaceEntry>,
    /// When set, every firewall hook evaluates through a
    /// [`FaultyEnv`] drawing from this injector — the soak/bench
    /// harness for the fail-safe context semantics. `None` (the
    /// default) adds nothing to the hook path.
    pub fault_injection: Option<FaultInjector>,
}

/// One recorded pathname-resolution step: which process, from which
/// entrypoint, looked up which name in which directory — and whether an
/// adversary could have planted something there.
///
/// This is the "attack surface" a STING-style tester needs: every
/// (directory, component) pair under adversary control is a candidate
/// site for planting a symlink or squatting a name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SurfaceEntry {
    /// The resolving process.
    pub pid: Pid,
    /// Its entrypoint at the time (innermost user frame), if any.
    pub entrypoint: Option<(ProgramId, u64)>,
    /// The syscall performing the resolution.
    pub syscall: SyscallNr,
    /// The directory being searched.
    pub dir: ObjRef,
    /// Its MAC label.
    pub dir_label: SecId,
    /// The component being looked up in it.
    pub component: String,
    /// Whether the directory's label was adversary-writable *at record
    /// time*. The adversary model can widen after recording (a trusted
    /// label crosses the taint threshold), so consumers must re-resolve
    /// through [`MacPolicy::adversary_writable`] at query time; this
    /// snapshot exists so staleness is observable, not to be trusted.
    pub adversary_writable: bool,
}

impl Kernel {
    /// Creates a kernel over the given policy with an empty root
    /// filesystem and a firewall at the default optimization level.
    pub fn new(mac: MacPolicy) -> Self {
        let root_label = mac
            .lookup_label("root_t")
            .unwrap_or_else(|| mac.default_label());
        Kernel {
            vfs: Vfs::new(root_label),
            mac,
            programs: Interner::new(),
            firewall: Arc::new(ProcessFirewall::new(pf_core::OptLevel::EptSpc)),
            tasks: HashMap::new(),
            next_pid: 1,
            clock: 0,
            frame_limit: 64,
            symlink_protection: false,
            record_surface: false,
            surface: Vec::new(),
            fault_injection: None,
        }
    }

    /// The current logical time (advances once per syscall).
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Installs `pftables` lines into the firewall.
    pub fn install_rules<'a>(
        &mut self,
        lines: impl IntoIterator<Item = &'a str>,
    ) -> PfResult<usize> {
        self.firewall
            .install_all(lines, &mut self.mac, &mut self.programs)
    }

    /// Replaces this kernel's firewall with a shared instance (so
    /// several kernels evaluate hooks against one rule base). Resets
    /// every task's session: pins from the previous firewall must not
    /// leak across instances.
    pub fn set_firewall(&mut self, firewall: Arc<ProcessFirewall>) {
        self.firewall = firewall;
        for task in self.tasks.values_mut() {
            task.pf_session.reset();
        }
    }

    // ------------------------------------------------------------------
    // Process management.
    // ------------------------------------------------------------------

    /// Creates a process running `binary` with the given identity.
    pub fn spawn(&mut self, label: &str, binary: &str, uid: Uid, gid: Gid) -> Pid {
        let sid = self.mac.intern_label(label);
        let prog = self.programs.intern(binary);
        let pid = Pid(self.next_pid);
        self.next_pid += 1;
        let mut task = Task::new(pid, uid, gid, sid, prog, self.vfs.root());
        // OAMAC spawn rule: system-high subjects start trusted; anything
        // the adversary model already owns produces tainted data from
        // its first write.
        task.origin = if self.mac.is_syshigh(sid) {
            pf_mac::ORIGIN_TRUSTED
        } else {
            pf_mac::ORIGIN_TAINTED
        };
        self.tasks.insert(pid, task);
        pid
    }

    // ------------------------------------------------------------------
    // Origin (taint) propagation — the OAMAC adversary model.
    // ------------------------------------------------------------------

    /// Raises a task's origin to `max(current, incoming)`; origin is
    /// monotone, so a lower `incoming` is a no-op.
    ///
    /// Every actual raise counts one `origin_transition`. A raise that
    /// carries a *system-high* subject across the taint threshold widens
    /// the adversary model: the label joins the adversary set
    /// ([`MacPolicy::taint_subject`]), which bumps the adversary-model
    /// generation — every per-task verdict cache self-invalidates on its
    /// next lookup, and `origin_widened` counts the event.
    pub fn raise_task_origin(&mut self, pid: Pid, incoming: u64) -> PfResult<()> {
        let task = self
            .tasks
            .get_mut(&pid)
            .ok_or(PfError::NoSuchProcess(pid.0))?;
        let next = pf_mac::propagate_origin(task.origin, incoming);
        if next == task.origin {
            return Ok(());
        }
        task.origin = next;
        let sid = task.sid;
        self.firewall.metrics().bump_origin_transition();
        if next >= pf_mac::TAINT_THRESHOLD
            && self.mac.is_syshigh(sid)
            && self.mac.taint_subject(sid)
        {
            self.firewall.metrics().bump_origin_widened();
        }
        Ok(())
    }

    /// Stains an inode's content origin with a writer's level
    /// (`max(current, incoming)`), counting a transition on every
    /// actual raise. File origin, like task origin, never decreases.
    pub fn stain_inode(&mut self, obj: ObjRef, incoming: u64) -> PfResult<()> {
        let inode = self.vfs.inode_mut(obj)?;
        let next = pf_mac::propagate_origin(inode.origin, incoming);
        if next != inode.origin {
            inode.origin = next;
            self.firewall.metrics().bump_origin_transition();
        }
        Ok(())
    }

    /// A task's current origin level (tests and scenario harnesses).
    pub fn task_origin(&self, pid: Pid) -> PfResult<u64> {
        Ok(self.task(pid)?.origin)
    }

    /// Creates a process with `depth` pre-pushed caller frames, so the
    /// unwinder walks a realistic stack before reaching whatever
    /// per-call-site frame the caller pushes with [`Kernel::with_frame`].
    ///
    /// Fleet-scale harnesses use this to give each simulated task a
    /// persistent stack without re-pushing filler frames per syscall.
    pub fn spawn_with_stack(
        &mut self,
        label: &str,
        binary: &str,
        uid: Uid,
        gid: Gid,
        depth: usize,
    ) -> Pid {
        let pid = self.spawn(label, binary, uid, gid);
        let prog = self.programs.intern(binary);
        if let Some(t) = self.tasks.get_mut(&pid) {
            for i in 0..depth {
                t.push_frame(Frame {
                    program: prog,
                    pc: 0x9000 + (i as u64) * 0x10,
                });
            }
        }
        pid
    }

    /// Shared access to a task.
    pub fn task(&self, pid: Pid) -> PfResult<&Task> {
        self.tasks.get(&pid).ok_or(PfError::NoSuchProcess(pid.0))
    }

    /// Mutable access to a task.
    pub fn task_mut(&mut self, pid: Pid) -> PfResult<&mut Task> {
        self.tasks
            .get_mut(&pid)
            .ok_or(PfError::NoSuchProcess(pid.0))
    }

    /// Number of live tasks.
    pub fn task_count(&self) -> usize {
        self.tasks.len()
    }

    /// Runs `f` with a user-stack frame pushed, popping it afterwards.
    ///
    /// Victim models wrap each resource-access call site in one of these;
    /// the innermost frame is the entrypoint the firewall sees.
    pub fn with_frame<R>(
        &mut self,
        pid: Pid,
        program: &str,
        pc: u64,
        f: impl FnOnce(&mut Kernel) -> R,
    ) -> R {
        let prog = self.programs.intern(program);
        if let Some(t) = self.tasks.get_mut(&pid) {
            t.push_frame(Frame { program: prog, pc });
        }
        let out = f(self);
        if let Some(t) = self.tasks.get_mut(&pid) {
            t.pop_frame();
        }
        out
    }

    // ------------------------------------------------------------------
    // Setup-time filesystem population (bypasses authorization, like
    // mkfs/package installation would).
    // ------------------------------------------------------------------

    /// Creates all missing directories along `path`, returning the final
    /// directory. Labels come from the MAC file contexts.
    pub fn mk_dirs(&mut self, path: &str) -> PfResult<ObjRef> {
        let mut cur = self.vfs.root();
        let mut so_far = String::new();
        for comp in pf_vfs::split_components(path) {
            so_far.push('/');
            so_far.push_str(comp);
            cur = self.vfs.redirect(cur);
            match self.vfs.dir_lookup(cur, comp)? {
                Some(next) => cur = self.vfs.redirect(next),
                None => {
                    let label = self.mac.label_for_path(&so_far);
                    cur = self.vfs.create_child(
                        cur,
                        comp,
                        InodeKind::empty_dir(),
                        pf_types::Mode::DIR_DEFAULT,
                        Uid::ROOT,
                        Gid::ROOT,
                        label,
                    )?;
                }
            }
        }
        Ok(cur)
    }

    /// Creates (or replaces) a file at `path` with explicit ownership.
    pub fn put_file(
        &mut self,
        path: &str,
        content: &[u8],
        mode: u16,
        uid: Uid,
        gid: Gid,
    ) -> PfResult<ObjRef> {
        let (dir, name) = self.setup_slot(path)?;
        if let Some(existing) = self.vfs.dir_lookup(dir, &name)? {
            self.vfs.write(existing, Bytes::copy_from_slice(content))?;
            return Ok(existing);
        }
        let label = self.mac.label_for_path(path);
        let obj = self.vfs.create_child(
            dir,
            &name,
            InodeKind::File {
                data: Bytes::copy_from_slice(content),
            },
            pf_types::Mode(mode),
            uid,
            gid,
            label,
        )?;
        Ok(obj)
    }

    /// Creates a symlink at `path` pointing to `target`.
    pub fn put_symlink(&mut self, path: &str, target: &str, uid: Uid) -> PfResult<ObjRef> {
        let (dir, name) = self.setup_slot(path)?;
        let label = self.mac.label_for_path(path);
        self.vfs.create_child(
            dir,
            &name,
            InodeKind::Symlink {
                target: target.to_owned(),
            },
            pf_types::Mode(0o777),
            uid,
            Gid(uid.0),
            label,
        )
    }

    /// Mounts a fresh tmpfs-style device at `path` (sticky 1777 root).
    pub fn mount_tmpfs(&mut self, path: &str) -> PfResult<()> {
        let at = self.mk_dirs(path)?;
        let label = self.mac.label_for_path(path);
        let dev = self.vfs.add_device(label);
        self.vfs.mount(at, dev)?;
        let root = self.vfs.device_root(dev);
        self.vfs.inode_mut(root)?.mode = pf_types::Mode::TMP_DIR;
        Ok(())
    }

    fn setup_slot(&mut self, path: &str) -> PfResult<(ObjRef, String)> {
        let comps = pf_vfs::split_components(path);
        let (name, dirs) = comps
            .split_last()
            .ok_or_else(|| PfError::InvalidArgument(format!("bad path `{path}`")))?;
        let dir_path = format!("/{}", dirs.join("/"));
        let dir = self.mk_dirs(&dir_path)?;
        Ok((self.vfs.redirect(dir), (*name).to_owned()))
    }

    /// Resolves a path without authorization (tests and setup).
    pub fn resolve_unchecked(&self, start: ObjRef, path: &str) -> PfResult<Resolved> {
        resolve(
            &self.vfs,
            start,
            path,
            &ResolveOpts::default(),
            &mut |_, _| Ok(()),
        )
    }

    /// Looks up the object a path names (no authorization; tests/setup).
    pub fn lookup(&self, path: &str) -> PfResult<ObjRef> {
        let r = self.resolve_unchecked(self.vfs.root(), path)?;
        r.target.ok_or_else(|| PfError::NotFound(path.to_owned()))
    }

    // ------------------------------------------------------------------
    // The authorization pipeline.
    // ------------------------------------------------------------------

    /// Syscall prologue: clock, per-syscall PF cache, trace ring, and the
    /// `syscallbegin` firewall chain.
    pub(crate) fn syscall_enter(&mut self, pid: Pid, nr: SyscallNr) -> PfResult<()> {
        self.clock += 1;
        let task = self
            .tasks
            .get_mut(&pid)
            .ok_or(PfError::NoSuchProcess(pid.0))?;
        if task.exited {
            return Err(PfError::NoSuchProcess(pid.0));
        }
        task.pf_cache = [None; CONCACHE_SLOTS];
        task.syscall = (nr, [nr.as_u64(), 0, 0, 0]);
        task.record_syscall(nr);
        self.hook(pid, LsmOperation::SyscallBegin, None, None, None)
    }

    /// DAC + MAC authorization for one access to one object.
    pub(crate) fn authorize_access(
        &self,
        pid: Pid,
        obj: ObjRef,
        access: AccessKind,
    ) -> PfResult<()> {
        let task = self.task(pid)?;
        authorize(&self.vfs, &self.mac, task, obj, access)
    }

    /// Invokes the Process Firewall hook for one operation.
    pub(crate) fn hook(
        &mut self,
        pid: Pid,
        op: LsmOperation,
        object: Option<ObjRef>,
        link_ctx: Option<(ObjRef, String)>,
        signal: Option<SignalInfo>,
    ) -> PfResult<()> {
        let task = self
            .tasks
            .get_mut(&pid)
            .ok_or(PfError::NoSuchProcess(pid.0))?;
        pf_hook(
            &self.firewall,
            task,
            &self.vfs,
            &self.mac,
            &self.programs,
            self.clock,
            self.frame_limit,
            self.fault_injection.as_ref(),
            op,
            object,
            link_ctx,
            signal,
        )
    }

    /// Mediated pathname resolution: one DAC search check plus one
    /// `DIR_SEARCH` firewall event per component, one `LINK_READ` per
    /// traversed symlink.
    pub(crate) fn resolve_checked(
        &mut self,
        pid: Pid,
        path: &str,
        opts: ResolveOpts,
    ) -> PfResult<Resolved> {
        let Kernel {
            vfs,
            mac,
            programs,
            firewall,
            tasks,
            clock,
            frame_limit,
            record_surface,
            surface,
            symlink_protection,
            fault_injection,
            ..
        } = self;
        let fault = fault_injection.as_ref();
        let task = tasks.get_mut(&pid).ok_or(PfError::NoSuchProcess(pid.0))?;
        let cwd = task.cwd;
        let mut hook = |vfs: &Vfs, ev: &ResolveEvent| -> PfResult<()> {
            match ev {
                ResolveEvent::DirSearch { dir, component } => {
                    if *record_surface {
                        let dir_label = vfs.inode(*dir)?.label;
                        surface.push(SurfaceEntry {
                            pid,
                            entrypoint: task.entrypoint().map(|f| (f.program, f.pc)),
                            syscall: task.syscall.0,
                            dir: *dir,
                            dir_label,
                            component: component.clone(),
                            adversary_writable: mac.adversary_writable(dir_label),
                        });
                    }
                    authorize(vfs, mac, task, *dir, AccessKind::Execute)?;
                    pf_hook(
                        firewall,
                        task,
                        vfs,
                        mac,
                        programs,
                        *clock,
                        *frame_limit,
                        fault,
                        LsmOperation::DirSearch,
                        Some(*dir),
                        None,
                        None,
                    )
                }
                ResolveEvent::LinkRead {
                    link, dir, target, ..
                } => {
                    if *symlink_protection {
                        // The system-only baseline: no process context,
                        // just link/dir ownership in sticky public dirs.
                        let dir_inode = vfs.inode(*dir)?;
                        let link_inode = vfs.inode(*link)?;
                        let public =
                            dir_inode.mode.is_sticky() && dir_inode.mode.other_bits() & 0o2 != 0;
                        if public && task.euid != link_inode.uid && link_inode.uid != dir_inode.uid
                        {
                            return Err(PfError::PermissionDenied(
                                "symlink protection: untrusted link in sticky dir".into(),
                            ));
                        }
                    }
                    pf_hook(
                        firewall,
                        task,
                        vfs,
                        mac,
                        programs,
                        *clock,
                        *frame_limit,
                        fault,
                        LsmOperation::LinkRead,
                        Some(*link),
                        Some((*dir, target.clone())),
                        None,
                    )
                }
            }
        };
        resolve(vfs, cwd, path, &opts, &mut hook)
    }
}

/// DAC then MAC, in kernel order. Both must pass.
pub(crate) fn authorize(
    vfs: &Vfs,
    mac: &MacPolicy,
    task: &Task,
    obj: ObjRef,
    access: AccessKind,
) -> PfResult<()> {
    let inode = vfs.inode(obj)?;
    if !dac_permits(inode, task.euid, task.egid, access) {
        return Err(PfError::PermissionDenied(format!(
            "dac: uid {} denied {:?} on {}",
            task.euid.0, access, inode.ino
        )));
    }
    let mac_access = match access {
        AccessKind::Read => Access::Read,
        AccessKind::Write => Access::Write,
        AccessKind::Execute => Access::Exec,
    };
    if !mac.authorize(task.sid, inode.label, mac_access) {
        return Err(PfError::PermissionDenied(format!(
            "mac: {} denied {:?} on {}",
            mac.label_name(task.sid),
            access,
            mac.label_name(inode.label)
        )));
    }
    Ok(())
}

/// The PF hook body shared by [`Kernel::hook`] and the resolution closure.
#[allow(clippy::too_many_arguments)]
pub(crate) fn pf_hook(
    firewall: &ProcessFirewall,
    task: &mut Task,
    vfs: &Vfs,
    mac: &MacPolicy,
    programs: &Interner,
    clock: u64,
    frame_limit: usize,
    fault: Option<&FaultInjector>,
    op: LsmOperation,
    object: Option<ObjRef>,
    link_ctx: Option<(ObjRef, String)>,
    signal: Option<SignalInfo>,
) -> PfResult<()> {
    let object_info = match object {
        Some(obj) => {
            let inode = vfs.inode(obj)?;
            Some(ObjectInfo {
                sid: inode.label,
                resource: ResourceId::File {
                    dev: obj.dev,
                    ino: obj.ino,
                },
                owner: inode.uid,
                group: inode.gid,
                mode: inode.mode,
            })
        }
        None => None,
    };
    // The session lives inside the task, but `KernelEnv` needs the
    // whole task mutably; take the session out for the duration of the
    // evaluation and put it back once the env borrow ends.
    let mut session = std::mem::take(&mut task.pf_session);
    let mut env = KernelEnv {
        task,
        vfs,
        mac,
        programs,
        object: object_info,
        link_ctx,
        link_owner_memo: None,
        signal,
        clock,
        frame_limit,
    };
    let decision = match fault {
        Some(injector) => {
            let mut faulty = FaultyEnv::new(&mut env, injector);
            session.evaluate(firewall, &mut faulty, op)
        }
        None => session.evaluate(firewall, &mut env, op),
    };
    drop(env);
    task.pf_session = session;
    match decision.verdict {
        pf_types::Verdict::Allow => Ok(()),
        pf_types::Verdict::Deny => {
            let (chain, rule_index) = decision
                .dropped_by
                .map_or_else(|| ("?".to_owned(), 0), |by| (by.chain.name(), by.index));
            Err(PfError::FirewallDenied { chain, rule_index })
        }
    }
}

/// The [`EvalEnv`] implementation borrowing kernel internals for one hook.
struct KernelEnv<'a> {
    task: &'a mut Task,
    vfs: &'a Vfs,
    mac: &'a MacPolicy,
    programs: &'a Interner,
    object: Option<ObjectInfo>,
    link_ctx: Option<(ObjRef, String)>,
    link_owner_memo: Option<Option<Uid>>,
    signal: Option<SignalInfo>,
    clock: u64,
    frame_limit: usize,
}

impl EvalEnv for KernelEnv<'_> {
    fn subject_sid(&self) -> SecId {
        self.task.sid
    }

    fn program(&self) -> ProgramId {
        self.task.binary
    }

    fn pid(&self) -> Pid {
        self.task.pid
    }

    fn unwind_entrypoint(&mut self) -> Option<(ProgramId, u64)> {
        // Input sanitization per §4.4: refuse corrupted stacks and cap the
        // number of frames visited (DoS guard). The checksum loop stands in
        // for the `copy_from_user` + frame-validation work a real unwinder
        // performs per frame, so unwind cost scales with stack depth.
        if self.task.stack_corrupted || self.task.user_stack.len() > self.frame_limit {
            return None;
        }
        let mut checksum: u64 = 0xcbf2_9ce4_8422_2325;
        for frame in &self.task.user_stack {
            // Per frame a real unwinder copies the frame record from user
            // memory and validates it against unwind tables; model that
            // as hashing a frame-sized block of derived words.
            let mut w = (frame.program.0 as u64) << 32 | (frame.pc & 0xFFFF_FFFF);
            for _ in 0..64 {
                checksum ^= w;
                checksum = checksum.wrapping_mul(0x1000_0000_01b3);
                w = w.rotate_left(17).wrapping_add(checksum);
            }
        }
        std::hint::black_box(checksum);
        self.task.entrypoint().map(|f| (f.program, f.pc))
    }

    fn object(&self) -> Option<ObjectInfo> {
        self.object
    }

    fn link_target_owner(&mut self) -> Option<Uid> {
        if let Some(memo) = self.link_owner_memo {
            return memo;
        }
        let owner = self.link_ctx.as_ref().and_then(|(dir, target)| {
            let resolved = resolve(
                self.vfs,
                *dir,
                target,
                &ResolveOpts::default(),
                &mut |_, _| Ok(()),
            )
            .ok()?;
            let obj = resolved.target?;
            self.vfs.inode(obj).ok().map(|i| i.uid)
        });
        self.link_owner_memo = Some(owner);
        owner
    }

    fn syscall_arg(&self, idx: usize) -> u64 {
        self.task.syscall.1.get(idx).copied().unwrap_or(0)
    }

    fn signal(&self) -> Option<SignalInfo> {
        self.signal
    }

    fn mac(&self) -> &MacPolicy {
        self.mac
    }

    fn program_name(&self, id: ProgramId) -> Arc<str> {
        self.programs.resolve_shared(id)
    }

    fn state_get(&self, key: u64) -> Option<u64> {
        self.task.pf_state.get(&key).copied()
    }

    fn state_set(&mut self, key: u64, value: u64) {
        self.task.pf_state.insert(key, value);
    }

    fn state_unset(&mut self, key: u64) {
        self.task.pf_state.remove(&key);
    }

    fn cache_get(&self, slot: u8) -> Option<u64> {
        self.task.pf_cache.get(usize::from(slot)).copied().flatten()
    }

    // Out-of-range slots are ignored: their reads stay `None`.
    fn cache_put(&mut self, slot: u8, value: u64) {
        if let Some(cell) = self.task.pf_cache.get_mut(usize::from(slot)) {
            *cell = Some(value);
        }
    }

    fn now(&self) -> u64 {
        self.clock
    }

    fn interp_frame(&self) -> Option<(String, u32)> {
        self.task
            .interp_stack
            .last()
            .map(|f| (f.script.clone(), f.line))
    }

    fn subject_origin(&self) -> Option<u64> {
        Some(self.task.origin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_mac::ubuntu_mini;

    fn kernel() -> Kernel {
        Kernel::new(ubuntu_mini())
    }

    #[test]
    fn setup_helpers_build_a_tree_with_labels() {
        let mut k = kernel();
        k.put_file("/etc/passwd", b"root:x:0:0", 0o644, Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.put_file("/etc/shadow", b"root:$6$", 0o600, Uid::ROOT, Gid::ROOT)
            .unwrap();
        let passwd = k.lookup("/etc/passwd").unwrap();
        let shadow = k.lookup("/etc/shadow").unwrap();
        let etc_t = k.mac.lookup_label("etc_t").unwrap();
        let shadow_t = k.mac.lookup_label("shadow_t").unwrap();
        assert_eq!(k.vfs.inode(passwd).unwrap().label, etc_t);
        assert_eq!(k.vfs.inode(shadow).unwrap().label, shadow_t);
    }

    #[test]
    fn tmpfs_mount_is_a_separate_device() {
        let mut k = kernel();
        k.mount_tmpfs("/tmp").unwrap();
        k.put_file("/tmp/x", b"", 0o644, Uid(1000), Gid(1000))
            .unwrap();
        let x = k.lookup("/tmp/x").unwrap();
        assert_ne!(x.dev, k.vfs.root().dev);
        let tmp_t = k.mac.lookup_label("tmp_t").unwrap();
        assert_eq!(k.vfs.inode(x).unwrap().label, tmp_t);
    }

    #[test]
    fn spawn_and_with_frame() {
        let mut k = kernel();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        assert_eq!(k.task(pid).unwrap().entrypoint(), None);
        let depth = k.with_frame(pid, "/bin/sh", 0x42, |k| {
            k.task(pid).unwrap().user_stack.len()
        });
        assert_eq!(depth, 1);
        assert_eq!(k.task(pid).unwrap().user_stack.len(), 0);
    }

    #[test]
    fn vcache_level_serves_repeat_hooks_and_forked_children_start_cold() {
        use crate::OpenFlags;

        let mut k = kernel();
        k.put_file("/etc/passwd", b"root:x:0:0", 0o644, Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.install_rules(["pftables -o FILE_OPEN -d etc_t -j DROP"])
            .unwrap();
        k.firewall.set_level(pf_core::OptLevel::Vcache).unwrap();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        for _ in 0..3 {
            let e = k.open(pid, "/etc/passwd", OpenFlags::rdonly()).unwrap_err();
            assert!(matches!(e, PfError::FirewallDenied { .. }));
        }
        let m = k.firewall.metrics();
        let (hits, misses) = (m.vcache_hits(), m.vcache_misses());
        assert!(hits > 0, "repeat hooks should hit the verdict cache");
        assert_eq!(m.drops(), 3);

        // A forked child owns its own (cold) cache, but gets the same
        // denial; the parent's entries are untouched.
        let child = k.fork(pid).unwrap();
        assert!(k.task(child).unwrap().pf_session.vcache_len() == 0);
        let e = k
            .open(child, "/etc/passwd", OpenFlags::rdonly())
            .unwrap_err();
        assert!(matches!(e, PfError::FirewallDenied { .. }));
        let m = k.firewall.metrics();
        assert!(m.vcache_misses() > misses, "child walks populate anew");
        assert!(m.vcache_hits() >= hits);
    }

    #[test]
    fn authorize_checks_dac() {
        let mut k = kernel();
        k.put_file("/etc/shadow", b"", 0o600, Uid::ROOT, Gid::ROOT)
            .unwrap();
        let shadow = k.lookup("/etc/shadow").unwrap();
        let user = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        let root = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
        assert!(k.authorize_access(user, shadow, AccessKind::Read).is_err());
        assert!(k.authorize_access(root, shadow, AccessKind::Read).is_ok());
    }

    #[test]
    fn spawn_origin_tracks_the_adversary_model() {
        let mut k = kernel();
        let daemon = k.spawn("sshd_t", "/usr/sbin/sshd", Uid::ROOT, Gid::ROOT);
        let user = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        assert_eq!(k.task_origin(daemon).unwrap(), pf_mac::ORIGIN_TRUSTED);
        assert_eq!(k.task_origin(user).unwrap(), pf_mac::ORIGIN_TAINTED);
    }

    #[test]
    fn raise_task_origin_is_monotone_and_counted() {
        let mut k = kernel();
        let daemon = k.spawn("sshd_t", "/usr/sbin/sshd", Uid::ROOT, Gid::ROOT);
        let fw = Arc::clone(&k.firewall);
        let m = fw.metrics();
        k.raise_task_origin(daemon, pf_mac::ORIGIN_EXTERNAL)
            .unwrap();
        assert_eq!(k.task_origin(daemon).unwrap(), pf_mac::ORIGIN_EXTERNAL);
        // A lower incoming level never lowers the label, and a no-op
        // raise is not a transition.
        k.raise_task_origin(daemon, pf_mac::ORIGIN_TRUSTED).unwrap();
        k.raise_task_origin(daemon, pf_mac::ORIGIN_EXTERNAL)
            .unwrap();
        assert_eq!(k.task_origin(daemon).unwrap(), pf_mac::ORIGIN_EXTERNAL);
        assert_eq!(m.origin_transitions(), 1);
        assert_eq!(m.origin_widened(), 0, "EXTERNAL is below the threshold");
        // Crossing the threshold widens the adversary model exactly once.
        let gen_before = k.mac.adversary_generation();
        k.raise_task_origin(daemon, pf_mac::ORIGIN_TAINTED).unwrap();
        assert_eq!(m.origin_transitions(), 2);
        assert_eq!(m.origin_widened(), 1);
        assert!(k.mac.adversary_generation() > gen_before);
        assert!(k.mac.is_tainted(k.mac.lookup_label("sshd_t").unwrap()));
    }

    #[test]
    fn origin_flows_along_write_read_exec_and_fork_edges() {
        use crate::OpenFlags;

        let mut k = kernel();
        k.mount_tmpfs("/tmp").unwrap();
        let user = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        // write: a tainted writer stains the inode.
        let fd = k
            .open(user, "/tmp/payload", OpenFlags::creat(0o755))
            .unwrap();
        k.write(user, fd, b"#!/bin/sh").unwrap();
        k.close(user, fd).unwrap();
        let obj = k.lookup("/tmp/payload").unwrap();
        assert_eq!(k.vfs.inode(obj).unwrap().origin, pf_mac::ORIGIN_TAINTED);

        // read: consuming the stained content taints the reader...
        let daemon = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
        let fd = k.open(daemon, "/tmp/payload", OpenFlags::rdonly()).unwrap();
        k.read(daemon, fd).unwrap();
        k.close(daemon, fd).unwrap();
        assert_eq!(k.task_origin(daemon).unwrap(), pf_mac::ORIGIN_TAINTED);

        // exec: executing the stained image taints the executor.
        let daemon2 = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
        k.execve(daemon2, "/tmp/payload").unwrap();
        assert_eq!(k.task_origin(daemon2).unwrap(), pf_mac::ORIGIN_TAINTED);

        // fork: the child inherits the parent's label.
        let child = k.fork(daemon2).unwrap();
        assert_eq!(k.task_origin(child).unwrap(), pf_mac::ORIGIN_TAINTED);
    }

    #[test]
    fn signal_delivery_propagates_the_sender_origin() {
        let mut k = kernel();
        let victim = k.spawn("sshd_t", "/usr/sbin/sshd", Uid::ROOT, Gid::ROOT);
        // Root-uid but untrusted-label sender, so delivery is permitted.
        let sender = k.spawn("user_t", "/bin/sh", Uid::ROOT, Gid::ROOT);
        assert_eq!(k.task_origin(victim).unwrap(), pf_mac::ORIGIN_TRUSTED);
        k.kill(sender, victim, pf_types::SignalNum::SIGTERM)
            .unwrap();
        assert_eq!(k.task_origin(victim).unwrap(), pf_mac::ORIGIN_TAINTED);
    }
}
