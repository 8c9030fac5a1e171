//! A line-protocol client for the `serve` binary.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

use rfic_netlist::json::{self, Json};

use crate::procfs;

/// A running `serve` child speaking line-delimited JSON on its pipes.
pub struct Serve {
    child: Child,
    /// Taken (closed) on shutdown.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl Serve {
    /// Spawns `serve` with a solver pool of `workers` threads.
    pub fn spawn(binary: &Path, workers: usize) -> Result<Serve, String> {
        let mut child = Command::new(binary)
            .args(["--workers", &workers.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Serve {
            child,
            stdin,
            stdout,
        })
    }

    /// Writes one request line without waiting for its response.
    pub fn send(&mut self, line: &str) -> Result<Instant, String> {
        let sent = Instant::now();
        let stdin = self.stdin.as_mut().ok_or("serve stdin is closed")?;
        writeln!(stdin, "{line}")
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("serve stdin: {e}"))?;
        Ok(sent)
    }

    /// Reads the next response line.
    pub fn receive(&mut self) -> Result<Json, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("serve closed its stdout".into()),
            Ok(_) => json::parse(line.trim_end()),
            Err(e) => Err(format!("serve stdout: {e}")),
        }
    }

    /// One round trip; fails on a response with `"ok": false`.
    pub fn call(&mut self, line: &str) -> Result<Json, String> {
        self.send(line)?;
        ok(self.receive()?)
    }

    /// CPU seconds used by the child so far.
    pub fn cpu_seconds(&self) -> f64 {
        procfs::cpu_seconds(&format!("/proc/{}/stat", self.child.id()))
    }

    /// Peak resident memory of the child so far, MB.
    pub fn peak_rss_mb(&self) -> f64 {
        procfs::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Asks the service to shut down and waits for the process to end.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = self.call("{\"op\":\"shutdown\"}").map(|_| ());
        self.stdin = None;
        let status = self.child.wait().map_err(|e| format!("serve wait: {e}"))?;
        asked?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("serve exited with {status}"))
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        // Reached only when a run fails before `shutdown`: never leave
        // the child behind.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Passes a successful response through; turns `"ok": false` into an
/// error carrying the response.
pub fn ok(response: Json) -> Result<Json, String> {
    if response.get("ok").and_then(Json::as_bool) == Some(true) {
        Ok(response)
    } else {
        Err(format!("serve refused a request: {response}"))
    }
}

/// A numeric field of a response.
pub fn number(response: &Json, key: &str) -> Result<f64, String> {
    response
        .get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response lacks {key}: {response}"))
}
