//! `rolag-serve` — the persistent compilation daemon.
//!
//! ```text
//! rolag-serve --stdio [--jobs N] [--capacity N]
//! rolag-serve --socket <path> [--jobs N] [--capacity N]
//! ```
//!
//! * `--stdio` — batch mode: read NDJSON requests from stdin, answer each
//!   on stdout, exit at EOF or on a `shutdown` command. A final metrics
//!   snapshot goes to stderr.
//! * `--socket <path>` — daemon mode: bind a unix socket and serve one
//!   thread per connection, all sharing one worker pool and both
//!   content-addressed caches. A `shutdown` request acknowledges, then
//!   exits the process.
//! * `--jobs N` — worker threads in the persistent pool (0 = all cores).
//! * `--capacity N` — capacity of each cache: replies in the request-level
//!   layer, function bodies in the cross-request store.
//!
//! Exit status: 0 on clean shutdown, 1 on usage or IO errors.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::Arc;

use rolag_serve::proto::{error_reply, read_line};
use rolag_serve::{Server, ServerConfig};

#[derive(Debug, Default)]
struct Cli {
    stdio: bool,
    socket: Option<String>,
    config: ServerConfig,
}

fn usage() -> &'static str {
    "usage: rolag-serve (--stdio | --socket <path>) [--jobs N] [--capacity N]"
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--stdio" => cli.stdio = true,
            "--socket" => {
                cli.socket = Some(it.next().ok_or("--socket needs a path")?.clone());
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                cli.config.jobs = v.parse().map_err(|_| format!("bad job count {v}"))?;
            }
            "--capacity" => {
                let v = it.next().ok_or("--capacity needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad capacity {v}"))?;
                if n == 0 {
                    return Err("capacity must be >= 1".into());
                }
                cli.config.capacity = n;
            }
            "-h" | "--help" => return Err(usage().into()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if cli.stdio == cli.socket.is_some() {
        return Err(usage().into());
    }
    Ok(cli)
}

/// Serves one line stream: reads requests from `input`, writes responses
/// to `output`. Returns true if a shutdown request ended the stream.
fn serve_stream(
    server: &Server,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<bool> {
    let mut buf = Vec::new();
    while let Some(line) = read_line(&mut input, &mut buf)? {
        let (response, shutdown) = match line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => server.handle_line(line),
            Err(e) => (error_reply(None, &e), false),
        };
        output.write_all(response.as_bytes())?;
        output.write_all(b"\n")?;
        output.flush()?;
        if shutdown {
            return Ok(true);
        }
    }
    Ok(false)
}

fn run_stdio(config: &ServerConfig) -> ExitCode {
    let server = Server::new(config);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match serve_stream(&server, stdin.lock(), stdout.lock()) {
        Ok(_) => {
            eprintln!("rolag-serve: {}", server.snapshot().to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rolag-serve: io error: {e}");
            ExitCode::from(1)
        }
    }
}

fn run_socket(path: &str, config: &ServerConfig) -> ExitCode {
    // A stale socket file from a previous run would make bind fail.
    let _ = std::fs::remove_file(path);
    let listener = match UnixListener::bind(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("rolag-serve: cannot bind {path}: {e}");
            return ExitCode::from(1);
        }
    };
    let server = Arc::new(Server::new(config));
    eprintln!(
        "rolag-serve: listening on {path} ({} workers, capacity {})",
        server.worker_count(),
        config.capacity
    );
    for conn in listener.incoming() {
        let stream = match conn {
            Ok(s) => s,
            Err(e) => {
                eprintln!("rolag-serve: accept: {e}");
                continue;
            }
        };
        let server = Arc::clone(&server);
        let sock = path.to_string();
        std::thread::spawn(move || {
            let reader = match stream.try_clone() {
                Ok(s) => BufReader::new(s),
                Err(e) => {
                    eprintln!("rolag-serve: clone: {e}");
                    return;
                }
            };
            match serve_stream(&server, reader, &stream) {
                Ok(true) => {
                    // Shutdown was acknowledged on the stream; drop the
                    // socket file and end the whole process.
                    eprintln!("rolag-serve: {}", server.snapshot().to_json());
                    let _ = stream.shutdown(std::net::Shutdown::Both);
                    let _ = std::fs::remove_file(&sock);
                    std::process::exit(0);
                }
                Ok(false) => {}
                Err(e) => eprintln!("rolag-serve: connection: {e}"),
            }
        });
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(1);
        }
    };
    if let Some(path) = &cli.socket {
        return run_socket(path, &cli.config);
    }
    run_stdio(&cli.config)
}
