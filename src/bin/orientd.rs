//! `orientd` — the orientation-as-a-service deployment server.
//!
//! Serves the line protocol of [`antennae::serve`] over TCP:
//!
//! ```text
//! orientd [--listen ADDR | --port N] [--threads N] [--print-port]
//!         [--data-dir DIR] [--sync always|every-n[=N]|never]
//!         [--max-queue N] [--read-timeout-ms N] [--tenant-quota N]
//!         [--auth-token-file PATH]
//! ```
//!
//! * `--listen ADDR` — bind address, default `127.0.0.1:7011`; use port 0
//!   for an ephemeral port.
//! * `--port N` — shorthand for `--listen 127.0.0.1:N`.
//! * `--threads N` — worker pool size, default `min(cores, 8)`.
//! * `--print-port` — print `PORT <n>` on stdout once bound (used by the
//!   CI smoke test to discover an ephemeral port).
//! * `--data-dir DIR` — run durable: every deployment keeps a write-ahead
//!   log + snapshot under `DIR/<name>/`, and boot recovers whatever a
//!   previous process left there (crashed or not).
//! * `--sync POLICY` — WAL fsync policy (requires `--data-dir`):
//!   `always` (fsync every record), `every-n` or `every-n=N` (fsync every
//!   N records, default 32), `never` (OS-buffered only; clean `SHUTDOWN`
//!   still syncs).  Default `every-n`.
//! * `--max-queue N` — cap on connections waiting for a worker, default
//!   1024; past it new connections are answered `ERR overloaded` and
//!   closed.  `0` disables the cap.
//! * `--read-timeout-ms N` — per-connection read deadline, default 30000;
//!   a connection that dribbles or idles past it is evicted (slow-loris
//!   defence).  `0` disables the deadline.
//! * `--tenant-quota N` — cap on buffered (un-drained) edits per
//!   deployment, default 65536; past it `EDIT` answers `ERR overloaded`
//!   until `ORIENT`/`VERIFY` drains.  `0` disables the quota.
//! * `--auth-token-file PATH` — require `AUTH <token>` (the file's
//!   trimmed contents) before any verb other than `PING`.
//!
//! Unknown or malformed flags exit with status 2 and print the usage line
//! to stderr.  The process exits cleanly after a `SHUTDOWN` request.

use antennae::serve::{Server, ServerConfig, Service};
use antennae::store::{Store, StoreConfig, SyncPolicy};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: orientd [--listen ADDR | --port N] [--threads N] [--print-port] \
                     [--data-dir DIR] [--sync always|every-n[=N]|never] [--max-queue N] \
                     [--read-timeout-ms N] [--tenant-quota N] [--auth-token-file PATH]";

#[derive(Debug)]
struct Args {
    listen: String,
    threads: usize,
    print_port: bool,
    data_dir: Option<std::path::PathBuf>,
    sync: Option<SyncPolicy>,
    /// Waiting-connection cap (`None` = unbounded, from `--max-queue 0`).
    max_queue: Option<usize>,
    /// Read deadline (`None` = no deadline, from `--read-timeout-ms 0`).
    read_timeout: Option<Duration>,
    /// Per-tenant pending-edit cap (`None` = unbounded).
    tenant_quota: Option<usize>,
    auth_token_file: Option<std::path::PathBuf>,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        listen: "127.0.0.1:7011".to_string(),
        threads: antennae_parallel::default_threads(),
        print_port: false,
        data_dir: None,
        sync: None,
        max_queue: Some(1024),
        read_timeout: Some(Duration::from_millis(30_000)),
        tenant_quota: Some(65_536),
        auth_token_file: None,
    };
    let mut argv = argv.peekable();
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--listen" => match argv.next() {
                Some(addr) => args.listen = addr,
                None => return Err("--listen needs an address".into()),
            },
            "--port" => match argv.next().and_then(|v| v.parse::<u16>().ok()) {
                Some(port) => args.listen = format!("127.0.0.1:{port}"),
                None => return Err("--port needs a port number".into()),
            },
            "--threads" => match argv.next().and_then(|v| v.parse().ok()) {
                Some(n) if n > 0 => args.threads = n,
                _ => return Err("--threads needs a positive integer".into()),
            },
            "--data-dir" => match argv.next() {
                Some(dir) if !dir.is_empty() => args.data_dir = Some(dir.into()),
                _ => return Err("--data-dir needs a directory path".into()),
            },
            "--sync" => match argv.next().as_deref().and_then(SyncPolicy::parse) {
                Some(policy) => args.sync = Some(policy),
                None => {
                    return Err("--sync takes always, every-n, every-n=N or never".into());
                }
            },
            "--max-queue" => match argv.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => args.max_queue = None,
                Some(n) => args.max_queue = Some(n),
                None => return Err("--max-queue needs a non-negative integer".into()),
            },
            "--read-timeout-ms" => match argv.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(0) => args.read_timeout = None,
                Some(ms) => args.read_timeout = Some(Duration::from_millis(ms)),
                None => return Err("--read-timeout-ms needs a non-negative integer".into()),
            },
            "--tenant-quota" => match argv.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(0) => args.tenant_quota = None,
                Some(n) => args.tenant_quota = Some(n),
                None => return Err("--tenant-quota needs a non-negative integer".into()),
            },
            "--auth-token-file" => match argv.next() {
                Some(path) if !path.is_empty() => args.auth_token_file = Some(path.into()),
                _ => return Err("--auth-token-file needs a file path".into()),
            },
            "--print-port" => args.print_port = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if args.sync.is_some() && args.data_dir.is_none() {
        return Err("--sync requires --data-dir".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(reason) if reason.is_empty() => {
            // --help: usage on stdout, success.
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(reason) => {
            eprintln!("orientd: {reason}");
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };

    let mut service = match &args.data_dir {
        None => Service::new(),
        Some(dir) => {
            let config = StoreConfig {
                sync: args.sync.unwrap_or_default(),
                ..StoreConfig::default()
            };
            let store = match Store::open(dir, config) {
                Ok(store) => store,
                Err(e) => {
                    eprintln!("orientd: cannot open data dir {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            };
            match Service::open_durable(store) {
                Ok((service, report)) => {
                    for (name, reason) in &report.skipped {
                        eprintln!("orientd: skipped tenant {name:?}: {reason}");
                    }
                    eprintln!(
                        "orientd: recovered {} deployment(s) from {} \
                         ({} skipped, {} torn tail(s), {} byte(s) discarded, sync={})",
                        report.recovered.len(),
                        dir.display(),
                        report.skipped.len(),
                        report.truncated_tails,
                        report.lost_bytes,
                        config.sync.as_flag(),
                    );
                    service
                }
                Err(e) => {
                    eprintln!("orientd: recovery failed in {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    };

    if let Some(path) = &args.auth_token_file {
        let token = match std::fs::read_to_string(path) {
            Ok(contents) => contents.trim().to_string(),
            Err(e) => {
                eprintln!("orientd: cannot read token file {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        if token.is_empty() {
            eprintln!("orientd: token file {} is empty", path.display());
            return ExitCode::FAILURE;
        }
        service.set_auth_token(Some(token));
        eprintln!("orientd: AUTH required (token from {})", path.display());
    }
    service.set_tenant_quota(args.tenant_quota);
    let service = Arc::new(service);

    let server_config = ServerConfig {
        threads: args.threads,
        read_timeout: args.read_timeout,
        max_queue: args.max_queue,
    };
    let server = match Server::bind_with_config(&args.listen, service, server_config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("orientd: cannot bind {}: {e}", args.listen);
            return ExitCode::FAILURE;
        }
    };
    let addr = server.local_addr();
    if args.print_port {
        // Machine-readable, flushed immediately: scripts wait for this line.
        println!("PORT {}", addr.port());
        use std::io::Write;
        let _ = std::io::stdout().flush();
    }
    eprintln!("orientd: listening on {addr} ({} workers)", args.threads);
    match server.run() {
        Ok(()) => {
            eprintln!("orientd: clean shutdown");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("orientd: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, String> {
        parse_args(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn flag_grammar() {
        let args = parse(&[
            "--port",
            "7050",
            "--threads",
            "3",
            "--data-dir",
            "/tmp/x",
            "--sync",
            "every-n=8",
            "--print-port",
        ])
        .unwrap();
        assert_eq!(args.listen, "127.0.0.1:7050");
        assert_eq!(args.threads, 3);
        assert_eq!(
            args.data_dir.as_deref(),
            Some(std::path::Path::new("/tmp/x"))
        );
        assert_eq!(args.sync, Some(SyncPolicy::EveryN(8)));
        assert!(args.print_port);

        // Robustness knobs: explicit values, zero-disables, and defaults.
        let args = parse(&[
            "--max-queue",
            "16",
            "--read-timeout-ms",
            "250",
            "--tenant-quota",
            "100",
            "--auth-token-file",
            "/tmp/token",
        ])
        .unwrap();
        assert_eq!(args.max_queue, Some(16));
        assert_eq!(args.read_timeout, Some(Duration::from_millis(250)));
        assert_eq!(args.tenant_quota, Some(100));
        assert_eq!(
            args.auth_token_file.as_deref(),
            Some(std::path::Path::new("/tmp/token"))
        );
        let off = parse(&[
            "--max-queue",
            "0",
            "--read-timeout-ms",
            "0",
            "--tenant-quota",
            "0",
        ])
        .unwrap();
        assert_eq!(off.max_queue, None);
        assert_eq!(off.read_timeout, None);
        assert_eq!(off.tenant_quota, None);

        let defaults = parse(&[]).unwrap();
        assert!(defaults.data_dir.is_none());
        assert_eq!(defaults.max_queue, Some(1024));
        assert_eq!(defaults.read_timeout, Some(Duration::from_millis(30_000)));
        assert_eq!(defaults.tenant_quota, Some(65_536));
        assert!(defaults.auth_token_file.is_none());
        assert_eq!(parse(&["--help"]).unwrap_err(), "");
        for bad in [
            &["--frobnicate"][..],
            &["--port"],
            &["--port", "notaport"],
            &["--threads", "0"],
            &["--sync", "sometimes", "--data-dir", "/tmp/x"],
            &["--sync", "every-n=0", "--data-dir", "/tmp/x"],
            &["--sync", "always"], // requires --data-dir
            &["--data-dir"],
            &["--max-queue"],
            &["--max-queue", "lots"],
            &["--read-timeout-ms", "-1"],
            &["--tenant-quota", "many"],
            &["--auth-token-file"],
        ] {
            let err = parse(bad).unwrap_err();
            assert!(!err.is_empty(), "{bad:?} should be a hard flag error");
        }
    }
}
