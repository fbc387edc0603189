//! Tasks: credentials, fd table, user stack, signals, firewall state.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use pf_core::{TaskSession, CONCACHE_SLOTS};
use pf_types::{Fd, Gid, Pid, ProgramId, SecId, SignalNum, SyscallNr, Uid};
use pf_vfs::ObjRef;

/// One simulated user-stack frame.
///
/// The `pc` is relative to the binary's load base, which is how the rule
/// language specifies entrypoints ("entrypoint program counters are
/// specified relative to program binary base, handling ASLR code
/// randomization", Section 5.2). The innermost frame — the last pushed —
/// is the entrypoint of a resource-access system call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The binary (main program or shared library) containing the call.
    pub program: ProgramId,
    /// Program counter relative to that binary's base.
    pub pc: u64,
}

/// An interpreter-level backtrace frame (PHP/Python/Bash scripts).
///
/// The paper adapts each interpreter's backtrace code to run in the
/// kernel (11 LOC for PHP, 59 for Bash); here interpreters maintain this
/// stack directly and the entrypoint context module can expose it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InterpFrame {
    /// Script path.
    pub script: String,
    /// Line number of the call.
    pub line: u32,
}

/// An open file description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenFile {
    /// The object this description references.
    pub obj: ObjRef,
    /// Opened for reading.
    pub readable: bool,
    /// Opened for writing.
    pub writable: bool,
}

/// A registered signal handler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SigAction {
    /// Handler entry pc (cosmetic; presence means "handler installed").
    pub handler_pc: u64,
}

/// One process.
#[derive(Debug, Clone)]
pub struct Task {
    /// Process id.
    pub pid: Pid,
    /// Parent process id.
    pub ppid: Pid,
    /// Real user id.
    pub uid: Uid,
    /// Effective user id (differs from `uid` in setuid programs).
    pub euid: Uid,
    /// Real group id.
    pub gid: Gid,
    /// Effective group id.
    pub egid: Gid,
    /// MAC subject label.
    pub sid: SecId,
    /// Main program binary.
    pub binary: ProgramId,
    /// Current working directory.
    pub cwd: ObjRef,
    /// Environment variables.
    pub env: BTreeMap<String, String>,
    /// Open file descriptors.
    pub fds: HashMap<u32, OpenFile>,
    next_fd: u32,
    /// The simulated user call stack (innermost last).
    pub user_stack: Vec<Frame>,
    /// When `true`, stack unwinding fails (models invalid frame pointers;
    /// the §4.4 sanitization path).
    pub stack_corrupted: bool,
    /// Interpreter-level backtrace, when running a script.
    pub interp_stack: Vec<InterpFrame>,
    /// Installed signal handlers.
    pub sigactions: HashMap<SignalNum, SigAction>,
    /// Blocked signals.
    pub blocked: HashSet<SignalNum>,
    /// Nesting depth of signal handlers currently executing.
    pub in_handler: u32,
    /// The firewall's per-process STATE dictionary (the `task_struct`
    /// extension of Section 5.2).
    pub pf_state: HashMap<u64, u64>,
    /// The firewall's per-syscall context cache (cleared at syscall
    /// entry; the CONCACHE optimization), one fixed slot per cache id
    /// like the prototype's `task_struct` field.
    pub pf_cache: [Option<u64>; CONCACHE_SLOTS],
    /// The task's firewall session: the pinned ruleset snapshot and
    /// per-invocation scratch. Owning it here gives each simulated
    /// process its own lock-free path into the shared firewall.
    pub pf_session: TaskSession,
    /// Current syscall: number plus raw args (arg 0 is the number).
    pub syscall: (SyscallNr, [u64; 4]),
    /// Ring buffer of recent syscall numbers (process context for
    /// TOCTTOU-class invariants).
    pub syscall_trace: VecDeque<SyscallNr>,
    /// Monotone origin (taint) level per the OAMAC adversary model
    /// (`pf_mac::origin`): only ever raised — on reads/execs of tainted
    /// content and on signals from tainted senders. Forked children
    /// inherit it through `Clone`. The kernel raises it exclusively via
    /// `Kernel::raise_task_origin`, which keeps the firewall's counters
    /// and the adversary-model generation in step.
    pub origin: u64,
    /// Set on `exit`.
    pub exited: bool,
}

/// Capacity of the per-task syscall trace ring.
pub const SYSCALL_TRACE_LEN: usize = 16;

impl Task {
    /// Creates a task with the given identity, rooted at `cwd`.
    pub fn new(pid: Pid, uid: Uid, gid: Gid, sid: SecId, binary: ProgramId, cwd: ObjRef) -> Self {
        Task {
            pid,
            ppid: Pid(0),
            uid,
            euid: uid,
            gid,
            egid: gid,
            sid,
            binary,
            cwd,
            env: BTreeMap::new(),
            fds: HashMap::new(),
            next_fd: 3, // 0/1/2 reserved, as tradition demands.
            user_stack: Vec::new(),
            stack_corrupted: false,
            interp_stack: Vec::new(),
            sigactions: HashMap::new(),
            blocked: HashSet::new(),
            in_handler: 0,
            pf_state: HashMap::new(),
            pf_cache: [None; CONCACHE_SLOTS],
            pf_session: TaskSession::new(),
            syscall: (SyscallNr::Null, [0; 4]),
            syscall_trace: VecDeque::with_capacity(SYSCALL_TRACE_LEN),
            origin: 0,
            exited: false,
        }
    }

    /// Allocates a descriptor for an open file description.
    pub fn alloc_fd(&mut self, file: OpenFile) -> Fd {
        let fd = self.next_fd;
        self.next_fd += 1;
        self.fds.insert(fd, file);
        Fd(fd)
    }

    /// Looks up an open descriptor.
    pub fn fd(&self, fd: Fd) -> Option<OpenFile> {
        self.fds.get(&fd.0).copied()
    }

    /// Removes a descriptor, returning its description.
    pub fn take_fd(&mut self, fd: Fd) -> Option<OpenFile> {
        self.fds.remove(&fd.0)
    }

    /// Is this a setuid-context process (real and effective ids differ)?
    ///
    /// The `ld.so` model scrubs `LD_LIBRARY_PATH`/`LD_PRELOAD` exactly
    /// when this holds, mirroring Figure 1(b) lines 1–5.
    pub fn is_setuid_context(&self) -> bool {
        self.uid != self.euid || self.gid != self.egid
    }

    /// Pushes a user-stack frame (entering a function that will request
    /// resources).
    pub fn push_frame(&mut self, frame: Frame) {
        self.user_stack.push(frame);
    }

    /// Pops the innermost frame.
    pub fn pop_frame(&mut self) -> Option<Frame> {
        self.user_stack.pop()
    }

    /// The innermost frame, i.e. the current entrypoint.
    pub fn entrypoint(&self) -> Option<Frame> {
        self.user_stack.last().copied()
    }

    /// Records a syscall in the trace ring.
    pub fn record_syscall(&mut self, nr: SyscallNr) {
        if self.syscall_trace.len() == SYSCALL_TRACE_LEN {
            self.syscall_trace.pop_front();
        }
        self.syscall_trace.push_back(nr);
    }

    /// Reads an environment variable.
    pub fn getenv(&self, key: &str) -> Option<&str> {
        self.env.get(key).map(String::as_str)
    }

    /// Sets an environment variable.
    pub fn setenv(&mut self, key: &str, value: &str) {
        self.env.insert(key.to_owned(), value.to_owned());
    }

    /// Removes an environment variable (`unsetenv`).
    pub fn unsetenv(&mut self, key: &str) {
        self.env.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pf_types::{DeviceId, InodeNum, InternId};

    fn task() -> Task {
        Task::new(
            Pid(1),
            Uid(1000),
            Gid(1000),
            InternId(0),
            InternId(1),
            ObjRef {
                dev: DeviceId(0),
                ino: InodeNum(1),
            },
        )
    }

    #[test]
    fn fd_allocation_starts_at_three() {
        let mut t = task();
        let f = OpenFile {
            obj: t.cwd,
            readable: true,
            writable: false,
        };
        assert_eq!(t.alloc_fd(f), Fd(3));
        assert_eq!(t.alloc_fd(f), Fd(4));
        assert!(t.fd(Fd(3)).is_some());
        assert!(t.take_fd(Fd(3)).is_some());
        assert!(t.fd(Fd(3)).is_none());
    }

    #[test]
    fn setuid_context_detection() {
        let mut t = task();
        assert!(!t.is_setuid_context());
        t.euid = Uid::ROOT;
        assert!(t.is_setuid_context());
    }

    #[test]
    fn stack_push_pop_entrypoint() {
        let mut t = task();
        assert_eq!(t.entrypoint(), None);
        let outer = Frame {
            program: InternId(1),
            pc: 0x10,
        };
        let inner = Frame {
            program: InternId(2),
            pc: 0x20,
        };
        t.push_frame(outer);
        t.push_frame(inner);
        assert_eq!(t.entrypoint(), Some(inner));
        assert_eq!(t.pop_frame(), Some(inner));
        assert_eq!(t.entrypoint(), Some(outer));
    }

    #[test]
    fn syscall_trace_ring_caps() {
        let mut t = task();
        for _ in 0..(SYSCALL_TRACE_LEN + 5) {
            t.record_syscall(SyscallNr::Open);
        }
        assert_eq!(t.syscall_trace.len(), SYSCALL_TRACE_LEN);
    }

    #[test]
    fn env_round_trip() {
        let mut t = task();
        t.setenv("LD_LIBRARY_PATH", "/tmp/evil");
        assert_eq!(t.getenv("LD_LIBRARY_PATH"), Some("/tmp/evil"));
        t.unsetenv("LD_LIBRARY_PATH");
        assert_eq!(t.getenv("LD_LIBRARY_PATH"), None);
    }
}
