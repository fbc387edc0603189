//! Process-lifecycle syscalls.

use pf_core::CONCACHE_SLOTS;
use pf_types::{LsmOperation, PfError, PfResult, Pid, SyscallNr, Uid};
use pf_vfs::{AccessKind, ResolveOpts};

use crate::kernel::Kernel;

impl Kernel {
    /// The lmbench-style null syscall (`getpid`): pure hook-path cost.
    pub fn null_syscall(&mut self, pid: Pid) -> PfResult<Pid> {
        self.syscall_enter(pid, SyscallNr::Getpid)?;
        Ok(pid)
    }

    /// `fork(2)`: clones the task (fds bump inode refcounts).
    pub fn fork(&mut self, parent: Pid) -> PfResult<Pid> {
        self.syscall_enter(parent, SyscallNr::Fork)?;
        self.hook(parent, LsmOperation::ProcessFork, None, None, None)?;
        let child_pid = self.alloc_pid();
        let mut child = self.task(parent)?.clone();
        child.pid = child_pid;
        child.ppid = parent;
        child.pf_cache = [None; CONCACHE_SLOTS];
        for file in child.fds.values() {
            self.vfs.open_ref(file.obj)?;
        }
        self.tasks.insert(child_pid, child);
        Ok(child_pid)
    }

    /// `execve(2)`: replace the program image.
    ///
    /// Honours the setuid bit on the executed binary (effective ids take
    /// the file owner's), resets the user stack, clears handlers, and
    /// scrubs the firewall STATE dictionary — per-process invariants do
    /// not survive an image change.
    pub fn execve(&mut self, pid: Pid, path: &str) -> PfResult<()> {
        self.syscall_enter(pid, SyscallNr::Execve)?;
        let r = self.resolve_checked(pid, path, ResolveOpts::default())?;
        let obj = r.target.ok_or_else(|| PfError::NotFound(path.into()))?;
        self.authorize_access(pid, obj, AccessKind::Execute)?;
        self.hook(pid, LsmOperation::FileExec, Some(obj), None, None)?;
        self.hook(pid, LsmOperation::ProcessExec, Some(obj), None, None)?;
        // Executing a tainted image taints the process (OAMAC exec rule).
        let binary_origin = self.vfs.inode(obj)?.origin;
        self.raise_task_origin(pid, binary_origin)?;
        let inode = self.vfs.inode(obj)?;
        let (setuid, owner, setgid, group) = (
            inode.mode.is_setuid(),
            inode.uid,
            inode.mode.is_setgid(),
            inode.gid,
        );
        let prog = self.programs.intern(path);
        let task = self.task_mut(pid)?;
        task.binary = prog;
        task.user_stack.clear();
        task.interp_stack.clear();
        task.sigactions.clear();
        task.in_handler = 0;
        task.pf_state.clear();
        if setuid {
            task.euid = owner;
        }
        if setgid {
            task.egid = group;
        }
        Ok(())
    }

    /// `setuid(2)`: root may become anyone; others only their real uid.
    pub fn setuid(&mut self, pid: Pid, uid: Uid) -> PfResult<()> {
        self.syscall_enter(pid, SyscallNr::Setuid)?;
        self.hook(pid, LsmOperation::ProcessSetuid, None, None, None)?;
        let task = self.task_mut(pid)?;
        if task.euid.is_root() || task.uid == uid {
            task.uid = uid;
            task.euid = uid;
            Ok(())
        } else {
            Err(PfError::PermissionDenied("setuid: not permitted".into()))
        }
    }

    /// `exit(2)`: releases descriptors and removes the task.
    pub fn exit(&mut self, pid: Pid) -> PfResult<()> {
        self.syscall_enter(pid, SyscallNr::Exit)?;
        self.force_exit(pid)
    }

    fn alloc_pid(&mut self) -> Pid {
        // Find a free pid (forked children outlive the counter wrap).
        loop {
            let candidate = Pid(self.next_pid_bump());
            if !self.tasks.contains_key(&candidate) {
                return candidate;
            }
        }
    }

    fn next_pid_bump(&mut self) -> u32 {
        let Kernel { tasks, .. } = self;
        // Use the max existing pid + 1 as a simple monotonic source.
        tasks.keys().map(|p| p.0).max().unwrap_or(0) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::OpenFlags;
    use crate::world::standard_world;
    use pf_types::Gid;

    #[test]
    fn fork_clones_identity_and_fds() {
        let mut k = standard_world();
        let parent = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        let fd = k.open(parent, "/etc/passwd", OpenFlags::rdonly()).unwrap();
        let child = k.fork(parent).unwrap();
        assert_ne!(parent, child);
        assert_eq!(k.task(child).unwrap().uid, Uid(1000));
        assert!(k.read(child, fd).is_ok(), "fds are inherited");
        k.exit(child).unwrap();
        assert!(k.read(parent, fd).is_ok(), "parent fd survives child exit");
    }

    #[test]
    fn execve_setuid_binary_raises_euid() {
        let mut k = standard_world();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.put_file("/usr/bin/passwd", b"ELF", 0o4755, Uid::ROOT, Gid::ROOT)
            .unwrap();
        k.execve(pid, "/usr/bin/passwd").unwrap();
        let t = k.task(pid).unwrap();
        assert_eq!(t.uid, Uid(1000));
        assert_eq!(t.euid, Uid::ROOT);
        assert!(t.is_setuid_context());
        assert!(t.pf_state.is_empty());
    }

    #[test]
    fn execve_requires_exec_permission() {
        let mut k = standard_world();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.put_file("/opt/blob", b"data", 0o644, Uid::ROOT, Gid::ROOT)
            .unwrap();
        assert!(k.execve(pid, "/opt/blob").is_err());
    }

    #[test]
    fn setuid_rules() {
        let mut k = standard_world();
        let root = k.spawn("init_t", "/sbin/init", Uid::ROOT, Gid::ROOT);
        k.setuid(root, Uid(1000)).unwrap();
        assert_eq!(k.task(root).unwrap().euid, Uid(1000));
        assert!(k.setuid(root, Uid::ROOT).is_err(), "dropped for good");
    }

    #[test]
    fn exit_releases_everything() {
        let mut k = standard_world();
        let pid = k.spawn("user_t", "/bin/sh", Uid(1000), Gid(1000));
        k.open(pid, "/tmp/f", OpenFlags::creat(0o644)).unwrap();
        let before = k.task_count();
        k.exit(pid).unwrap();
        assert_eq!(k.task_count(), before - 1);
        assert!(k.null_syscall(pid).is_err());
    }
}
