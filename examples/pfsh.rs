//! `pfsh` — an interactive shell over the simulated kernel.
//!
//! Drive the whole system by hand: spawn processes, run syscalls, plant
//! attacks, install `pftables` rules, and inspect the firewall. Reads
//! commands from stdin (or from a script passed as the first argument).
//!
//! ```text
//! $ cargo run --example pfsh
//! pfsh> spawn user_t /bin/sh 1000
//! pid 1
//! pfsh> as 1 create /tmp/x hello
//! pfsh> rule pftables -o FILE_OPEN -d tmp_t -j DROP
//! pfsh> as 1 cat /tmp/x
//! error: EACCES: process firewall DROP (input#0)
//! pfsh> rules
//! ...
//! ```

use std::io::{BufRead, Write};

use process_firewall::firewall::render_rules;
use process_firewall::prelude::*;

struct Shell {
    kernel: Kernel,
    echo: bool,
}

impl Shell {
    fn run_line(&mut self, line: &str) -> Result<String, String> {
        let toks: Vec<&str> = line.split_whitespace().collect();
        match toks.as_slice() {
            [] => Ok(String::new()),
            ["#", ..] => Ok(String::new()),
            ["help"] => Ok(HELP.to_owned()),
            ["spawn", label, binary, uid] => {
                let uid: u32 = uid.parse().map_err(|e| format!("bad uid: {e}"))?;
                let pid = self.kernel.spawn(label, binary, Uid(uid), Gid(uid));
                Ok(format!("pid {}", pid.0))
            }
            ["rule", rest @ ..] => {
                let text = rest.join(" ");
                self.kernel
                    .install_rules([text.as_str()])
                    .map_err(|e| e.to_string())?;
                Ok(format!(
                    "installed ({} total)",
                    self.kernel.firewall.rule_count()
                ))
            }
            ["rules"] => Ok(render_rules(&self.kernel.firewall)),
            ["ps"] => {
                let mut out = String::new();
                let mut pids: Vec<u32> = (1..=64)
                    .filter(|p| self.kernel.task(Pid(*p)).is_ok())
                    .collect();
                pids.sort_unstable();
                for p in pids {
                    let t = self.kernel.task(Pid(p)).unwrap();
                    out.push_str(&format!(
                        "pid {:<4} uid {:<6} euid {:<6} {:<12} {} (frames {}, handlers {})\n",
                        p,
                        t.uid.0,
                        t.euid.0,
                        self.kernel.mac.label_name(t.sid),
                        self.kernel.programs.resolve(t.binary),
                        t.user_stack.len(),
                        t.sigactions.len(),
                    ));
                }
                Ok(out)
            }
            ["surface", toggle] => {
                self.kernel.record_surface = *toggle == "on";
                self.kernel.surface.clear();
                Ok(format!("surface recording {toggle}"))
            }
            ["surface"] => {
                let mut out = String::new();
                for e in self.kernel.surface.iter().filter(|e| e.adversary_writable) {
                    out.push_str(&format!(
                        "pid {} looked up `{}` in adversary-writable {} ({})\n",
                        e.pid.0,
                        e.component,
                        self.kernel.mac.label_name(e.dir_label),
                        e.syscall.name(),
                    ));
                }
                if out.is_empty() {
                    out = "no adversary-accessible lookups recorded".into();
                }
                Ok(out)
            }
            ["logs"] => {
                let drain = self.kernel.firewall.drain_logs();
                let mut lines: Vec<String> = drain.entries.iter().map(|l| l.to_json()).collect();
                if drain.gap {
                    let gap = format!("gap: {} records overwritten", drain.dropped_since_last);
                    lines.insert(0, gap);
                }
                Ok(lines.join("\n"))
            }
            ["stats"] => {
                let summary = self.kernel.firewall.metrics().render_summary();
                Ok(summary.trim_end().to_owned())
            }
            ["as", pid, rest @ ..] => {
                let pid = Pid(pid.parse().map_err(|e| format!("bad pid: {e}"))?);
                self.run_syscall(pid, rest)
            }
            other => Err(format!(
                "unknown command `{}` (try `help`)",
                other.join(" ")
            )),
        }
    }

    fn run_syscall(&mut self, pid: Pid, toks: &[&str]) -> Result<String, String> {
        let k = &mut self.kernel;
        let r = |e: PfError| e.to_string();
        match toks {
            ["cat", path] => {
                let fd = k.open(pid, path, OpenFlags::rdonly()).map_err(r)?;
                let data = k.read(pid, fd).map_err(r)?;
                k.close(pid, fd).map_err(r)?;
                Ok(String::from_utf8_lossy(&data).into_owned())
            }
            ["create", path, content @ ..] => {
                let fd = k.open(pid, path, OpenFlags::creat(0o644)).map_err(r)?;
                k.write(pid, fd, content.join(" ").as_bytes()).map_err(r)?;
                k.close(pid, fd).map_err(r)?;
                Ok(String::new())
            }
            ["stat", path] => {
                let st = k.stat(pid, path).map_err(r)?;
                Ok(format!(
                    "{} {} uid={} mode={} label={}",
                    st.dev,
                    st.ino,
                    st.uid.0,
                    st.mode,
                    k.mac.label_name(st.label)
                ))
            }
            ["lstat", path] => {
                let st = k.lstat(pid, path).map_err(r)?;
                Ok(format!(
                    "{} {} symlink={} uid={}",
                    st.dev,
                    st.ino,
                    st.is_symlink(),
                    st.uid.0
                ))
            }
            ["ln", target, link] => {
                k.symlink(pid, target, link).map_err(r)?;
                Ok(String::new())
            }
            ["rm", path] => {
                k.unlink(pid, path).map_err(r)?;
                Ok(String::new())
            }
            ["mkdir", path] => {
                k.mkdir(pid, path, 0o755).map_err(r)?;
                Ok(String::new())
            }
            ["cd", path] => {
                k.chdir(pid, path).map_err(r)?;
                Ok(String::new())
            }
            ["ls", path] => {
                let obj = k.lookup(path).map_err(r)?;
                Ok(k.vfs.readdir(obj).map_err(r)?.join("  "))
            }
            ["bind", path] => {
                let fd = k.bind_unix(pid, path, 0o666).map_err(r)?;
                Ok(format!("fd {}", fd.0))
            }
            ["connect", path] => {
                k.connect_unix(pid, path).map_err(r)?;
                Ok(String::new())
            }
            ["chmod", mode, path] => {
                let mode = u16::from_str_radix(mode, 8).map_err(|e| e.to_string())?;
                k.chmod(pid, path, mode).map_err(r)?;
                Ok(String::new())
            }
            ["kill", target, sig] => {
                let target = Pid(target.parse().map_err(|e| format!("bad pid: {e}"))?);
                let sig = SignalNum(sig.parse().map_err(|e| format!("bad signal: {e}"))?);
                let delivered = k.kill(pid, target, sig).map_err(r)?;
                Ok(format!("delivered={delivered}"))
            }
            ["handler", sig] => {
                let sig = SignalNum(sig.parse().map_err(|e| format!("bad signal: {e}"))?);
                k.sigaction(pid, sig, true).map_err(r)?;
                Ok(String::new())
            }
            ["frame", program, pc, rest @ ..] => {
                // Run a nested command with an entrypoint frame pushed.
                let pc = u64::from_str_radix(pc.trim_start_matches("0x"), 16)
                    .map_err(|e| e.to_string())?;
                let program = (*program).to_owned();
                let rest: Vec<String> = rest.iter().map(|s| (*s).to_owned()).collect();
                let prog_id = self.kernel.programs.intern(&program);
                self.kernel
                    .task_mut(pid)
                    .map_err(|e| e.to_string())?
                    .push_frame(process_firewall::os::Frame {
                        program: prog_id,
                        pc,
                    });
                let refs: Vec<&str> = rest.iter().map(String::as_str).collect();
                let out = self.run_syscall(pid, &refs);
                let _ = self
                    .kernel
                    .task_mut(pid)
                    .map_err(|e| e.to_string())?
                    .pop_frame();
                out
            }
            other => Err(format!("unknown syscall `{}`", other.join(" "))),
        }
    }
}

const HELP: &str = "\
commands:
  spawn <label> <binary> <uid>      create a process
  rule pftables ...                 install a firewall rule
  rules | logs | stats              inspect the firewall
  as <pid> cat <path>               open+read+close
  as <pid> create <path> <text>     open(O_CREAT)+write+close
  as <pid> stat|lstat <path>
  as <pid> ln <target> <link>       symlink
  as <pid> rm|mkdir|cd|ls <path>
  as <pid> bind|connect <path>      UNIX sockets
  as <pid> chmod <octal> <path>
  as <pid> kill <pid> <signum>      send a signal
  as <pid> handler <signum>         install a handler
  as <pid> frame <prog> <0xpc> <syscall...>   run with an entrypoint frame
";

fn main() {
    let mut shell = Shell {
        kernel: standard_world(),
        echo: false,
    };
    let script = std::env::args().nth(1);
    let reader: Box<dyn BufRead> = match &script {
        Some(path) => {
            shell.echo = true;
            Box::new(std::io::BufReader::new(
                std::fs::File::open(path).expect("script file"),
            ))
        }
        None => {
            println!("Process Firewall shell — `help` for commands, ^D to exit");
            Box::new(std::io::BufReader::new(std::io::stdin()))
        }
    };
    let interactive = script.is_none();
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if shell.echo {
            println!("pfsh> {line}");
        } else if interactive {
            print!("pfsh> ");
            let _ = std::io::stdout().flush();
        }
        match shell.run_line(&line) {
            Ok(out) if out.is_empty() => {}
            Ok(out) => println!("{out}"),
            Err(e) => println!("error: {e}"),
        }
    }
}
