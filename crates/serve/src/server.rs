//! The compilation service: persistent worker pool, cross-request store,
//! and cumulative metrics behind one [`Server`] value.
//!
//! A [`Server`] is `Sync`: socket mode shares one instance across
//! connection threads, so every client draws from the same content-
//! addressed cache and the same pool of worker threads. Requests are
//! handled at protocol level ([`Server::handle_line`] maps one NDJSON
//! request line to one response line), which is also what the bench and
//! the determinism tests drive — the unix-socket and stdio front ends in
//! `main.rs` are pure line transport.

use std::sync::Mutex;
use std::time::Instant;

use rolag::{
    roll_module_par, DriverOptions, DriverReport, MemoStore, MemoStoreStats, RolagOptions, Workers,
};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_par::WorkerPool;

use crate::json::escaped;
use crate::proto::{error_reply, parse_request, Request};

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the persistent pool; `0` means one per core.
    pub jobs: usize,
    /// Capacity of the cross-request store, in cached function bodies.
    pub capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            jobs: 0,
            capacity: 4096,
        }
    }
}

/// Cumulative service counters, updated per request.
#[derive(Debug, Default)]
struct Metrics {
    requests: u64,
    errors: u64,
    functions: u64,
    /// Sum of per-request wall time — the denominator of `funcs_per_sec`
    /// (service time, not elapsed time, so concurrent connections don't
    /// deflate it).
    busy_ns: u128,
    /// Per-request latency samples for the percentile report.
    latency_ns: Vec<u64>,
}

/// A point-in-time snapshot of the service metrics.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Roll requests answered (including failed ones).
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Function definitions processed.
    pub functions: u64,
    /// Cross-request store counters.
    pub store: MemoStoreStats,
    /// Functions per second of service time.
    pub funcs_per_sec: f64,
    /// Median request latency, nanoseconds.
    pub p50_ns: u64,
    /// 99th-percentile request latency, nanoseconds.
    pub p99_ns: u64,
}

impl Snapshot {
    /// The snapshot's `"cumulative"` JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"requests\": {}, \"errors\": {}, \"functions\": {}, \
             \"store_hits\": {}, \"store_misses\": {}, \"hit_rate\": {:.4}, \
             \"entries\": {}, \"capacity\": {}, \"evictions\": {}, \
             \"funcs_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            self.requests,
            self.errors,
            self.functions,
            self.store.hits,
            self.store.misses,
            self.store.hit_rate(),
            self.store.entries,
            self.store.capacity,
            self.store.evictions,
            self.funcs_per_sec,
            self.p50_ns,
            self.p99_ns
        )
    }
}

/// Nearest-rank percentile over an unsorted sample set.
fn percentile_ns(samples: &[u64], pct: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The persistent compilation service.
pub struct Server {
    pool: WorkerPool,
    store: MemoStore,
    metrics: Mutex<Metrics>,
}

impl Server {
    /// A server with `config.jobs` persistent workers and a store bounded
    /// to `config.capacity` entries.
    pub fn new(config: &ServerConfig) -> Self {
        Server {
            pool: WorkerPool::new(config.jobs),
            store: MemoStore::new(config.capacity),
            metrics: Mutex::new(Metrics::default()),
        }
    }

    /// The metrics guard, recovering from a poisoned mutex. A request
    /// thread that panics while holding the lock poisons it; treating that
    /// as fatal would fail every later request on a healthy server. The
    /// counters are monotone totals, so the worst a mid-update panic can
    /// leave behind is one half-recorded request.
    fn metrics(&self) -> std::sync::MutexGuard<'_, Metrics> {
        self.metrics
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Worker threads in the persistent pool.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// Handles one NDJSON request line; returns the response line (no
    /// trailing newline) and whether the request asked the server to shut
    /// down.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match parse_request(line) {
            Ok(req) => self.handle(&req),
            Err(e) => (error_reply(None, &e), false),
        }
    }

    /// Handles one parsed request.
    pub fn handle(&self, req: &Request) -> (String, bool) {
        match req {
            Request::Roll {
                id,
                module,
                options,
                ..
            } => (self.roll(id, module, options), false),
            Request::Stats { id } => (
                format!(
                    "{{\"id\": {}, \"ok\": true, \"cumulative\": {}}}",
                    escaped(id),
                    self.snapshot().to_json()
                ),
                false,
            ),
            Request::Shutdown { id } => (
                format!(
                    "{{\"id\": {}, \"ok\": true, \"shutdown\": true}}",
                    escaped(id)
                ),
                true,
            ),
        }
    }

    /// Rolls one module and renders the response line.
    fn roll(&self, id: &str, text: &str, options: &str) -> String {
        let start = Instant::now();
        let result = self.roll_inner(text, options);
        let wall_ns = start.elapsed().as_nanos();
        let mut m = self.metrics();
        m.requests += 1;
        m.busy_ns += wall_ns;
        m.latency_ns.push(wall_ns as u64);
        match result {
            Ok((printed, report)) => {
                m.functions += report.functions as u64;
                drop(m);
                let cumulative = self.snapshot().to_json();
                format!(
                    "{{\"id\": {id}, \"ok\": true, \"module\": {module}, \
                     \"stats\": {{\"rolled\": {rolled}, \"attempted\": {attempted}, \
                     \"size_before\": {before}, \"size_after\": {after}, \
                     \"reduction_percent\": {red:.2}}}, \
                     \"request\": {{\"functions\": {functions}, \"unique\": {unique}, \
                     \"cache_hits\": {cache_hits}, \"store_hits\": {sh}, \
                     \"store_misses\": {sm}, \"hit_rate\": {hr:.4}, \
                     \"wall_ns\": {wall_ns}}}, \
                     \"cumulative\": {cumulative}}}",
                    id = escaped(id),
                    module = escaped(&printed),
                    rolled = report.stats.rolled,
                    attempted = report.stats.attempted,
                    before = report.stats.size_before,
                    after = report.stats.size_after,
                    red = report.stats.reduction_percent(),
                    functions = report.functions,
                    unique = report.unique,
                    cache_hits = report.cache_hits,
                    sh = report.store_hits,
                    sm = report.store_misses,
                    hr = report.store_hit_rate(),
                )
            }
            Err(e) => {
                m.errors += 1;
                drop(m);
                error_reply(Some(id), &e)
            }
        }
    }

    /// Parse → verify → roll → print, against the shared pool and store.
    fn roll_inner(&self, text: &str, options: &str) -> Result<(String, DriverReport), String> {
        let opts = RolagOptions::preset(options)?;
        let mut module =
            parse_module(text).map_err(|e| format!("{}:{}: {}", e.line, e.col, e.message))?;
        verify_module(&module)
            .map_err(|errors| format!("module does not verify: {}", errors[0]))?;
        let driver = DriverOptions {
            workers: Workers::Pool(&self.pool),
            store: Some(&self.store),
        };
        let report = roll_module_par(&mut module, &opts, &driver);
        Ok((print_module(&module), report))
    }

    /// Current cumulative metrics.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics();
        let secs = m.busy_ns as f64 / 1e9;
        Snapshot {
            requests: m.requests,
            errors: m.errors,
            functions: m.functions,
            store: self.store.stats(),
            funcs_per_sec: if secs > 0.0 {
                m.functions as f64 / secs
            } else {
                0.0
            },
            p50_ns: percentile_ns(&m.latency_ns, 50.0),
            p99_ns: percentile_ns(&m.latency_ns, 99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_reply;

    const ROLLABLE: &str = r#"
module "m"
global @a : [8 x i32] = zero
func @fill() -> void {
entry:
  %g0 = gep i32, @a, i64 0
  store i32 0, %g0
  %g1 = gep i32, @a, i64 1
  store i32 5, %g1
  %g2 = gep i32, @a, i64 2
  store i32 10, %g2
  %g3 = gep i32, @a, i64 3
  store i32 15, %g3
  %g4 = gep i32, @a, i64 4
  store i32 20, %g4
  %g5 = gep i32, @a, i64 5
  store i32 25, %g5
  ret
}
"#;

    fn roll_request(id: &str) -> String {
        Request::Roll {
            id: id.into(),
            module: ROLLABLE.into(),
            options: "default".into(),
            client: None,
        }
        .render()
    }

    #[test]
    fn identical_requests_hit_the_store() {
        let server = Server::new(&ServerConfig {
            jobs: 2,
            capacity: 64,
        });
        let (first, stop) = server.handle_line(&roll_request("r1"));
        assert!(!stop);
        let first = parse_reply(&first).unwrap();
        assert!(first.ok, "{:?}", first.error);
        assert_eq!(first.rolled, 1);
        assert_eq!((first.store_hits, first.store_misses), (0, 1));

        let (second, _) = server.handle_line(&roll_request("r2"));
        let second = parse_reply(&second).unwrap();
        assert!(second.ok);
        assert_eq!((second.store_hits, second.store_misses), (1, 0));
        assert_eq!(
            first.module, second.module,
            "cache-served output must be byte-identical"
        );
        assert!((second.cumulative_hit_rate - 0.5).abs() < 1e-9);

        let snap = server.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.functions, 2);
        assert!(snap.p50_ns > 0 && snap.p99_ns >= snap.p50_ns);
        assert!(snap.funcs_per_sec > 0.0);
    }

    #[test]
    fn errors_are_reported_per_request_and_counted() {
        let server = Server::new(&ServerConfig {
            jobs: 1,
            capacity: 8,
        });
        for (line, expect) in [
            ("{\"id\": \"b1\", \"module\": \"not ir\"}", "error"),
            ("{\"id\"", "id"),
            (
                "{\"id\": \"b2\", \"module\": \"module \\\"m\\\"\\n\", \"options\": \"turbo\"}",
                "preset",
            ),
        ] {
            let (resp, stop) = server.handle_line(line);
            assert!(!stop);
            let reply = parse_reply(&resp).unwrap();
            assert!(!reply.ok);
            assert!(
                reply.error.as_deref().unwrap_or("").contains(expect)
                    || !reply.error.as_deref().unwrap_or("").is_empty(),
                "{resp}"
            );
        }
        // The malformed line is not a roll request; the two bad rolls are.
        assert_eq!(server.snapshot().errors, 2);
    }

    #[test]
    fn stats_and_shutdown_commands_answer_in_protocol() {
        let server = Server::new(&ServerConfig {
            jobs: 1,
            capacity: 8,
        });
        let (resp, stop) = server.handle_line("{\"id\": \"s\", \"cmd\": \"stats\"}");
        assert!(!stop);
        let reply = parse_reply(&resp).unwrap();
        assert!(reply.ok && reply.id == "s");

        let (resp, stop) = server.handle_line("{\"id\": \"q\", \"cmd\": \"shutdown\"}");
        assert!(stop, "shutdown must stop the serving loop");
        assert!(parse_reply(&resp).unwrap().ok);
    }

    #[test]
    fn requests_survive_a_poisoned_metrics_lock() {
        let server = Server::new(&ServerConfig {
            jobs: 1,
            capacity: 8,
        });
        let (resp, _) = server.handle_line(&roll_request("before"));
        assert!(parse_reply(&resp).unwrap().ok);

        // A request thread that panics while holding the metrics lock —
        // the mid-request failure mode that used to take down every
        // later request with a "metrics lock" panic.
        std::thread::scope(|s| {
            let handle = s.spawn(|| {
                let _guard = server.metrics.lock().unwrap();
                panic!("injected mid-request panic");
            });
            assert!(handle.join().is_err(), "injection thread must panic");
        });
        assert!(server.metrics.lock().is_err(), "lock must be poisoned");

        // Later roll and stats requests on the same server still succeed.
        let (resp, stop) = server.handle_line(&roll_request("after"));
        assert!(!stop);
        let reply = parse_reply(&resp).unwrap();
        assert!(reply.ok, "{:?}", reply.error);
        assert_eq!(reply.rolled, 1);

        let (resp, stop) = server.handle_line("{\"id\": \"s\", \"cmd\": \"stats\"}");
        assert!(!stop);
        assert!(parse_reply(&resp).unwrap().ok);

        let snap = server.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 0);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_ns(&samples, 50.0), 50);
        assert_eq!(percentile_ns(&samples, 99.0), 99);
        assert_eq!(percentile_ns(&[7], 99.0), 7);
        assert_eq!(percentile_ns(&[], 50.0), 0);
    }
}
