//! `rolag-serve` — the persistent compilation daemon.
//!
//! ```text
//! rolag-serve --stdio [--jobs N] [--capacity N]
//! rolag-serve --socket <path> [--jobs N] [--capacity N]
//! rolag-serve --check-bench <BENCH_serve.json>
//! ```
//!
//! * `--stdio` — batch mode: read NDJSON requests from stdin, answer each
//!   on stdout, exit at EOF or on a `shutdown` command. A final metrics
//!   snapshot goes to stderr.
//! * `--socket <path>` — daemon mode: bind a unix socket and serve one
//!   thread per connection, all sharing one worker pool and one
//!   content-addressed store. A `shutdown` request acknowledges, then
//!   exits the process.
//! * `--jobs N` — worker threads in the persistent pool (0 = all cores).
//! * `--capacity N` — cross-request store capacity, in cached bodies.
//! * `--check-bench <path>` — validate the schema of a `BENCH_serve.json`
//!   produced by the serve bench and exit (0 valid, 1 not). Used by CI.
//!
//! Exit status: 0 on clean shutdown, 1 on usage/IO/schema errors.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixListener;
use std::process::ExitCode;
use std::sync::Arc;

use rolag_serve::json::{parse, Json};
use rolag_serve::proto::{error_reply, read_line};
use rolag_serve::{Server, ServerConfig};

#[derive(Debug, Default)]
struct Cli {
    stdio: bool,
    socket: Option<String>,
    check_bench: Option<String>,
    config: ServerConfig,
}

fn usage() -> &'static str {
    "usage: rolag-serve (--stdio | --socket <path> | --check-bench <json>) \
     [--jobs N] [--capacity N]"
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
            "--check-bench" => {
                cli.check_bench = Some(it.next().ok_or("--check-bench needs a path")?.clone());
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
    let modes = usize::from(cli.stdio)
        + usize::from(cli.socket.is_some())
        + usize::from(cli.check_bench.is_some());
    if modes != 1 {
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

/// Schema of `BENCH_serve.json`: the members the acceptance criteria and
/// the CI gate read, with their types. Extra members are allowed.
fn check_bench(path: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let num = |key: &str| -> Result<f64, String> {
        doc.get(key)
            .and_then(Json::as_num)
            .ok_or(format!("{path}: missing numeric \"{key}\""))
    };
    if doc.get("bench").and_then(Json::as_str) != Some("serve") {
        return Err(format!("{path}: \"bench\" must be \"serve\""));
    }
    let workload = doc
        .get("workload")
        .ok_or(format!("{path}: missing \"workload\""))?;
    for key in ["modules", "functions", "duplication"] {
        workload
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("{path}: missing numeric workload.{key}"))?;
    }
    for phase in ["cold", "warm"] {
        let obj = doc
            .get(phase)
            .ok_or(format!("{path}: missing \"{phase}\""))?;
        for key in ["p50_ns", "p99_ns", "mean_ns", "funcs_per_sec"] {
            obj.get(key)
                .and_then(Json::as_num)
                .ok_or(format!("{path}: missing numeric {phase}.{key}"))?;
        }
    }
    let pressure = doc
        .get("pressure")
        .ok_or(format!("{path}: missing \"pressure\""))?;
    let evictions = pressure
        .get("evictions")
        .and_then(Json::as_num)
        .ok_or(format!("{path}: missing numeric pressure.evictions"))?;
    if evictions < 1.0 {
        return Err(format!(
            "{path}: pressure.evictions {evictions} — the pressure phase must \
             actually exercise clock eviction"
        ));
    }
    let pressure_hit_rate = pressure
        .get("hit_rate")
        .and_then(Json::as_num)
        .ok_or(format!("{path}: missing numeric pressure.hit_rate"))?;
    if !(0.0..=1.0).contains(&pressure_hit_rate) {
        return Err(format!(
            "{path}: pressure.hit_rate {pressure_hit_rate} out of range"
        ));
    }
    let hit_rate = num("hit_rate")?;
    let speedup = num("warm_speedup_p50")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("{path}: hit_rate {hit_rate} out of range"));
    }
    if hit_rate < 0.5 {
        return Err(format!(
            "{path}: hit_rate {hit_rate:.3} below the 0.5 acceptance floor"
        ));
    }
    if speedup < 2.0 {
        return Err(format!(
            "{path}: warm_speedup_p50 {speedup:.2} below the 2x acceptance floor"
        ));
    }
    Ok(())
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
    if let Some(path) = &cli.check_bench {
        return match check_bench(path) {
            Ok(()) => {
                println!("ok: {path} matches the serve bench schema");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }
    if let Some(path) = &cli.socket {
        return run_socket(path, &cli.config);
    }
    run_stdio(&cli.config)
}
