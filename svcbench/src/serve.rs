//! The server under test, run as a child process of the benchmark.
//!
//! The benchmark re-executes its own binary with the `serve` role, so
//! the server's memory and CPU are its own and the load generator's allocations
//! never show in the server's resident set.

use bqs_net::{BqsClient, Server, ServerConfig};
use bqs_obs::MetricsRegistry;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// glibc malloc arenas the server may use. glibc adds an arena whenever
/// a thread finds the others' locked, so the count, and with it the
/// server's resident set and allocation speed, would depend on thread
/// timing: rounds of identical input grew RSS by 61 or 102 MB and
/// ingested 0.85 or 1.03 M pts/s. One arena makes both repeat.
pub const MALLOC_ARENAS: &str = "1";

/// How long a shut-down server may take to drain, spill and exit.
const EXIT_TIMEOUT: Duration = Duration::from_secs(120);

/// Server sizing, fixed by the benchmark's command line.
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    pub workers: usize,
    pub io_threads: usize,
    pub tolerance: f64,
}

impl Sizing {
    pub fn describe(&self) -> String {
        format!(
            "workers={} io_threads={} tolerance_m={} fsync=false malloc_arenas={MALLOC_ARENAS}",
            self.workers, self.io_threads, self.tolerance
        )
    }
}

/// A running server child process. Dropping it kills and reaps the
/// child; [`ServerProc::shutdown`] stops it gracefully.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Starts a server spilling into `spill` (which must not exist yet)
    /// and waits until it listens.
    pub fn spawn(
        sizing: Sizing,
        evict_idle: f64,
        spill: &Path,
        metrics: bool,
    ) -> Result<ServerProc, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--spill")
            .arg(spill)
            .args(["--workers", &sizing.workers.to_string()])
            .args(["--io-threads", &sizing.io_threads.to_string()])
            .args(["--tolerance", &sizing.tolerance.to_string()])
            .args(["--evict-idle", &evict_idle.to_string()])
            .env("MALLOC_ARENA_MAX", MALLOC_ARENAS)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if metrics {
            cmd.arg("--metrics");
        }
        let mut child = cmd.spawn().map_err(|e| format!("spawn server: {e}"))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut proc = ServerProc {
            child: Some(child),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read server address: {e}"))?;
        proc.addr = line
            .trim()
            .strip_prefix("listening ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (said {:?})", line.trim()))?;
        Ok(proc)
    }

    /// The child's resident set size in bytes (`VmRSS`).
    pub fn rss_bytes(&self) -> u64 {
        let Some(child) = &self.child else { return 0 };
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map_or(0, |kb| kb * 1024)
    }

    /// Sends `Shutdown` and waits until the server has drained, spilled
    /// every session and exited cleanly.
    pub fn shutdown(mut self) -> Result<(), String> {
        BqsClient::connect(self.addr)
            .and_then(BqsClient::shutdown)
            .map_err(|e| format!("shutdown: {e}"))?;
        let mut child = self.child.take().expect("a live child");
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(None) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server did not exit after shutdown".to_string());
                }
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// The `serve` role: binds, announces `listening ADDR` on stdout and
/// serves until a client sends `Shutdown`.
pub fn serve_main(args: &[String]) -> Result<(), String> {
    let mut spill = None;
    let mut sizing = Sizing {
        workers: 1,
        io_threads: 1,
        tolerance: 10.0,
    };
    let mut evict_idle = 0.0;
    let mut metrics = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--spill" => spill = Some(PathBuf::from(value()?)),
            "--workers" => sizing.workers = parse(flag, value()?)?,
            "--io-threads" => sizing.io_threads = parse(flag, value()?)?,
            "--tolerance" => sizing.tolerance = parse(flag, value()?)?,
            "--evict-idle" => evict_idle = parse(flag, value()?)?,
            "--metrics" => metrics = true,
            other => return Err(format!("serve: unknown flag {other}")),
        }
    }
    let spill = spill.ok_or("serve needs --spill")?;
    let mut config = ServerConfig::new("127.0.0.1:0", sizing.workers, spill);
    config.io_threads = sizing.io_threads;
    config.tolerance = sizing.tolerance;
    config.evict_idle = evict_idle;
    config.metrics = metrics.then(MetricsRegistry::new);
    let server = Server::bind(config).map_err(|e| e.to_string())?;
    // A benchmark killed before it could shut its server down must not
    // leave the server behind: exit once the parent is gone.
    let parent = std::os::unix::process::parent_id();
    std::thread::spawn(move || loop {
        std::thread::sleep(Duration::from_millis(200));
        if std::os::unix::process::parent_id() != parent {
            std::process::exit(2);
        }
    });
    println!("listening {}", server.local_addr());
    let report = server.run().map_err(|e| e.to_string())?;
    eprintln!(
        "server: {} frames, {} points, {} sessions spilled ({} points, {} bytes)",
        report.frames,
        report.appended_points,
        report.spilled_sessions,
        report.spilled_points,
        report.spilled_bytes
    );
    Ok(())
}

pub fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}
