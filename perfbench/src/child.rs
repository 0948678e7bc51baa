//! The driver's handle on a daemon child process (`perfbench serve`).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use crate::serve::BackendKind;

/// How long a daemon that was told to stop may take to exit before it is
/// killed.
const EXIT_GRACE: Duration = Duration::from_secs(10);

/// What the daemon reported at shutdown.
#[derive(Debug, Default)]
pub struct DaemonReport {
    fields: HashMap<String, u64>,
    /// Backend time per traced data call, in call order.
    pub calls: Vec<u64>,
}

impl DaemonReport {
    /// A numeric field of the `report` line (0 when absent).
    pub fn get(&self, key: &str) -> u64 {
        self.fields.get(key).copied().unwrap_or(0)
    }
}

/// A running daemon child. Dropping it without [`Daemon::finish`] closes
/// its stdin (which stops it), waits briefly, then kills it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts this executable in the daemon role, pinned to `cpu` if
    /// given, and waits until it listens.
    pub fn spawn(
        backend: BackendKind,
        store_root: &Path,
        cpu: Option<usize>,
    ) -> Result<Self, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve").arg("--store-root").arg(store_root);
        if let Some(cpu) = cpu {
            cmd.args(["--cpu", &cpu.to_string()]);
        }
        match backend {
            BackendKind::Disk { cache_bytes } => {
                cmd.args(["--backend", "disk", "--cache-bytes", &cache_bytes.to_string()]);
            }
            BackendKind::Mem => {
                cmd.args(["--backend", "mem"]);
            }
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut daemon =
            Self { child, stdin: Some(stdin), stdout, addr: ([127, 0, 0, 1], 0).into() };
        let line = daemon.read_line()?;
        daemon.addr = line
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("daemon said {line:?}, expected its address"))?;
        Ok(daemon)
    }

    /// The daemon's listening address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Turns backend-call timing on or off; returns once the daemon has
    /// applied it.
    pub fn set_tracing(&mut self, on: bool) -> Result<(), String> {
        self.send(if on { "trace 1" } else { "trace 0" })?;
        match self.read_line()?.as_str() {
            "ok" => Ok(()),
            other => Err(format!("daemon answered {other:?} to a trace toggle")),
        }
    }

    /// Stops the daemon and returns its report.
    pub fn finish(mut self) -> Result<DaemonReport, String> {
        self.send("quit")?;
        self.stdin = None;
        let report = self.read_line()?;
        let fields = report
            .strip_prefix("report ")
            .ok_or_else(|| format!("daemon said {report:?}, expected its report"))?
            .split(' ')
            .filter_map(|kv| kv.split_once('='))
            .map(|(k, v)| v.parse().map(|v| (k.to_string(), v)))
            .collect::<Result<HashMap<_, _>, _>>()
            .map_err(|e| format!("report field: {e}"))?;
        let calls = self.read_line()?;
        let calls = calls
            .strip_prefix("calls")
            .ok_or_else(|| "daemon sent no call spans".to_string())?
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("call span: {e}"))?;
        let status = self.wait()?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        Ok(DaemonReport { fields, calls })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("daemon stdin already closed")?;
        writeln!(stdin, "{line}")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("daemon control: {e}"))
    }

    fn read_line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("daemon exited early".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("daemon output: {e}")),
        }
    }

    /// Waits for exit, killing the daemon after [`EXIT_GRACE`].
    fn wait(&mut self) -> Result<std::process::ExitStatus, String> {
        self.stdin = None;
        let deadline = Instant::now() + EXIT_GRACE;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => return Ok(status),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    let _ = self.child.kill();
                    return self.child.wait().map_err(|e| format!("wait daemon: {e}"));
                }
                Err(e) => return Err(format!("wait daemon: {e}")),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.wait();
        }
    }
}
