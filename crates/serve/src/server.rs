//! The compilation service: persistent worker pool, request-level reply
//! cache, cross-request store, and cumulative metrics behind one
//! [`Server`] value.
//!
//! A roll request meets two caches. The first holds whole replies, keyed
//! by the preset name and the full module text: a reply is a pure
//! function of the two, so a repeated request is answered without being
//! parsed, verified, keyed or printed. Every other request goes on to the
//! driver, whose [`MemoStore`] replays each function whose closure key it
//! has seen. Both are `MemoStore`s sized by [`ServerConfig::capacity`].
//!
//! A [`Server`] is `Sync`: socket mode shares one instance across
//! connection threads, so every client draws from the same content-
//! addressed cache and the same pool of worker threads. Requests are
//! handled at protocol level ([`Server::handle_line`] maps one NDJSON
//! request line to one response line), which is also what the bench and
//! the determinism tests drive — the unix-socket and stdio front ends in
//! `main.rs` are pure line transport.

use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rolag::{
    roll_module_par, DriverOptions, DriverReport, MemoStore, MemoStoreStats, RolagOptions, Workers,
};
use rolag_ir::parser::parse_module;
use rolag_ir::printer::print_module;
use rolag_ir::verify::verify_module;
use rolag_par::WorkerPool;

use crate::json::{escaped, write_escaped};
use crate::proto::{error_reply, parse_request, Request};

/// Service construction knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads in the persistent pool; `0` means one per core.
    pub jobs: usize,
    /// Capacity of each cache: the request-level layer holds this many
    /// replies, the cross-request store this many function bodies.
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
    /// Per-request latencies, for the percentile report.
    latency: LatencyHistogram,
}

/// Log2 of the sub-buckets per power of two in [`LatencyHistogram`].
const SUB_BITS: u32 = 6;
/// Sub-buckets per power of two: the resolution of [`LatencyHistogram`].
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Buckets covering every `u64`: values below [`SUB_BUCKETS`] one each,
/// then [`SUB_BUCKETS`] per power of two up to 2^64.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB_BUCKETS as usize;

/// A log-linear latency histogram of fixed size. Values below 64 have a
/// bucket each; above, every power of two is cut into 64 equal buckets,
/// so a bucket is at most 1/64 of its lower bound wide. A percentile
/// reads the nearest-rank sample's bucket and reports its midpoint,
/// which is within 1/128 of the exact nearest-rank sample. Recording is
/// O(1) and the memory is fixed, however long the server lives.
#[derive(Debug)]
struct LatencyHistogram {
    counts: Box<[u64]>,
    total: u64,
    /// Highest non-empty bucket, so a percentile walk stops there.
    top: usize,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            total: 0,
            top: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket of `v`.
    fn bucket(v: u64) -> usize {
        if v < SUB_BUCKETS {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (shift as u64 * SUB_BUCKETS + (v >> shift)) as usize
    }

    /// The midpoint of bucket `i`.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB_BUCKETS {
            return i;
        }
        let shift = i / SUB_BUCKETS - 1;
        let low = (SUB_BUCKETS + i % SUB_BUCKETS) << shift;
        low + ((1u64 << shift) >> 1)
    }

    fn record(&mut self, ns: u64) {
        let i = Self::bucket(ns);
        self.counts[i] += 1;
        self.total += 1;
        self.top = self.top.max(i);
    }

    /// Nearest-rank percentiles for ascending `pcts`, each within 1/128
    /// of the exact sample; `0` for an empty histogram.
    fn percentiles<const N: usize>(&self, pcts: [f64; N]) -> [u64; N] {
        let mut out = [0; N];
        if self.total == 0 {
            return out;
        }
        let ranks = pcts.map(|pct| {
            let rank = ((pct / 100.0) * self.total as f64).ceil() as u64;
            rank.clamp(1, self.total)
        });
        let mut seen = 0;
        let mut k = 0;
        for (i, &count) in self.counts[..=self.top].iter().enumerate() {
            seen += count;
            while k < N && ranks[k] <= seen {
                out[k] = Self::value(i);
                k += 1;
            }
        }
        out
    }
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
    /// Roll requests answered from the request-level layer, without
    /// reaching the driver.
    pub request_hits: u64,
    /// Cross-request store counters, over the requests that reached the
    /// driver.
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
             \"request_hits\": {}, \"store_hits\": {}, \"store_misses\": {}, \
             \"hit_rate\": {:.4}, \"entries\": {}, \"capacity\": {}, \"evictions\": {}, \
             \"funcs_per_sec\": {:.1}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            self.requests,
            self.errors,
            self.functions,
            self.request_hits,
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

/// A request-level reply: a roll reply's module, already JSON-escaped,
/// and the report of the driver run that produced it.
struct Reply {
    module: String,
    report: DriverReport,
}

/// The persistent compilation service.
pub struct Server {
    pool: WorkerPool,
    /// Replies by preset name and module text.
    replies: MemoStore<Reply>,
    store: MemoStore,
    metrics: Mutex<Metrics>,
}

impl Server {
    /// A server with `config.jobs` persistent workers, and a reply layer
    /// and a store each bounded to `config.capacity` entries.
    pub fn new(config: &ServerConfig) -> Self {
        Server {
            pool: WorkerPool::new(config.jobs),
            replies: MemoStore::new(config.capacity),
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
        m.latency.record(wall_ns as u64);
        match result {
            Ok((reply, request_hit)) => {
                m.functions += reply.report.functions as u64;
                drop(m);
                let cumulative = self.snapshot().to_json();
                let report = &reply.report;
                // A request hit never reached the store.
                let (sh, sm, hr) = if request_hit {
                    (0, 0, 0.0)
                } else {
                    (
                        report.store_hits,
                        report.store_misses,
                        report.store_hit_rate(),
                    )
                };
                // The members around the module take a few hundred bytes.
                let mut out = String::with_capacity(reply.module.len() + 640);
                out.push_str("{\"id\": ");
                write_escaped(&mut out, id);
                out.push_str(", \"ok\": true, \"module\": ");
                out.push_str(&reply.module);
                let _ = write!(
                    out,
                    ", \"stats\": {{\"rolled\": {rolled}, \"attempted\": {attempted}, \
                     \"size_before\": {before}, \"size_after\": {after}, \
                     \"reduction_percent\": {red:.2}}}, \
                     \"request\": {{\"functions\": {functions}, \"unique\": {unique}, \
                     \"cache_hits\": {cache_hits}, \"request_hit\": {request_hit}, \
                     \"store_hits\": {sh}, \"store_misses\": {sm}, \"hit_rate\": {hr:.4}, \
                     \"wall_ns\": {wall_ns}}}, \
                     \"cumulative\": {cumulative}}}",
                    rolled = report.stats.rolled,
                    attempted = report.stats.attempted,
                    before = report.stats.size_before,
                    after = report.stats.size_after,
                    red = report.stats.reduction_percent(),
                    functions = report.functions,
                    unique = report.unique,
                    cache_hits = report.cache_hits,
                );
                out
            }
            Err(e) => {
                m.errors += 1;
                drop(m);
                error_reply(Some(id), &e)
            }
        }
    }

    /// The reply to a valid request and whether the request-level layer
    /// served it. A miss runs parse → verify → roll → print against the
    /// shared pool and store, and keeps the reply for its repeats.
    fn roll_inner(&self, text: &str, options: &str) -> Result<(Arc<Reply>, bool), String> {
        let opts = RolagOptions::preset(options)?;
        // A preset name holds no newline, so the first one ends it.
        let mut key = String::with_capacity(options.len() + 1 + text.len());
        key.push_str(options);
        key.push('\n');
        key.push_str(text);
        if let Some(reply) = self.replies.get(&key) {
            return Ok((reply, true));
        }
        let mut module =
            parse_module(text).map_err(|e| format!("{}:{}: {}", e.line, e.col, e.message))?;
        verify_module(&module)
            .map_err(|errors| format!("module does not verify: {}", errors[0]))?;
        let driver = DriverOptions {
            workers: Workers::Pool(&self.pool),
            store: Some(&self.store),
        };
        let report = roll_module_par(&mut module, &opts, &driver);
        let printed = print_module(&module);
        // The kept reply can take the memory the module held.
        drop(module);
        let reply = Arc::new(Reply {
            module: escaped(&printed),
            report,
        });
        self.replies.insert(key, Arc::clone(&reply));
        Ok((reply, false))
    }

    /// Current cumulative metrics.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics();
        let secs = m.busy_ns as f64 / 1e9;
        let [p50_ns, p99_ns] = m.latency.percentiles([50.0, 99.0]);
        Snapshot {
            requests: m.requests,
            errors: m.errors,
            functions: m.functions,
            request_hits: self.replies.stats().hits,
            store: self.store.stats(),
            funcs_per_sec: if secs > 0.0 {
                m.functions as f64 / secs
            } else {
                0.0
            },
            p50_ns,
            p99_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::parse_reply;
    use rolag_ir::parser::parse_module;

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

    fn request(id: &str, module: &str) -> String {
        Request::Roll {
            id: id.into(),
            module: module.into(),
            options: "default".into(),
            client: None,
        }
        .render()
    }

    /// A cold request misses both layers; its exact repeat is a request
    /// hit that never reaches the store; a twin whose text differs but
    /// whose function keys do not replays from the store.
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
        assert!(!first.request_hit);
        assert_eq!((first.store_hits, first.store_misses), (0, 1));

        let (second, _) = server.handle_line(&roll_request("r2"));
        let second = parse_reply(&second).unwrap();
        assert!(second.ok);
        assert!(second.request_hit, "an exact repeat is a request hit");
        assert_eq!((second.store_hits, second.store_misses), (0, 0));
        assert_eq!((second.rolled, second.functions), (1, 1));
        assert_eq!(
            first.module, second.module,
            "cache-served output must be byte-identical"
        );

        let twin = ROLLABLE.replacen("global @a", "global @pad : i32 = zero\nglobal @a", 1);
        let (third, _) = server.handle_line(&request("r3", &twin));
        let third = parse_reply(&third).unwrap();
        assert!(third.ok, "{:?}", third.error);
        assert!(!third.request_hit);
        assert_eq!((third.store_hits, third.store_misses), (1, 0));
        assert_eq!(third.rolled, 1);
        let mut cold = parse_module(&twin).unwrap();
        roll_module_par(
            &mut cold,
            &RolagOptions::default(),
            &DriverOptions::default(),
        );
        assert_eq!(
            third.module.as_deref(),
            Some(print_module(&cold).as_str()),
            "store-served output must be byte-identical to a cold roll"
        );
        assert!((third.cumulative_hit_rate - 0.5).abs() < 1e-9);

        let snap = server.snapshot();
        assert_eq!((snap.requests, snap.request_hits), (3, 1));
        assert_eq!((snap.store.hits, snap.store.misses), (1, 1));
        assert_eq!(snap.functions, 3);
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

    fn histogram_of(samples: &[u64]) -> LatencyHistogram {
        let mut h = LatencyHistogram::default();
        samples.iter().for_each(|&ns| h.record(ns));
        h
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(histogram_of(&samples).percentiles([50.0, 99.0]), [50, 99]);
        assert_eq!(histogram_of(&[7]).percentiles([99.0]), [7]);
        assert_eq!(histogram_of(&[]).percentiles([50.0]), [0]);
    }

    /// Every bucket's midpoint falls back into the bucket, the buckets
    /// are in value order, and a value's bucket midpoint is within 1/128
    /// of it, across the whole `u64` range.
    #[test]
    fn buckets_tile_the_values_in_order() {
        for i in 0..BUCKETS {
            assert_eq!(LatencyHistogram::bucket(LatencyHistogram::value(i)), i);
        }
        let mut values: Vec<u64> = (0..4096).collect();
        for shift in 12..64 {
            values.extend([(1u64 << shift) - 1, 1 << shift, (1 << shift) + 1]);
        }
        values.push(u64::MAX);
        let buckets: Vec<usize> = values
            .iter()
            .map(|&v| LatencyHistogram::bucket(v))
            .collect();
        assert!(buckets.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(buckets.last(), Some(&(BUCKETS - 1)));
        for (&v, &i) in values.iter().zip(&buckets) {
            let error = u128::from(LatencyHistogram::value(i).abs_diff(v));
            assert!(error * 128 <= u128::from(v), "{v}");
        }
    }

    /// A seeded sequence with repeats, spread over six decades: after every
    /// record, p50 and p99 are within 1/128 of the exact nearest rank over
    /// a sorted copy of the same samples.
    #[test]
    fn histogram_percentiles_stay_within_their_error_bound() {
        let mut h = LatencyHistogram::default();
        let mut samples = Vec::new();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = (x % 5_000) * 10u64.pow((x >> 32) as u32 % 6);
            h.record(ns);
            samples.push(ns);
            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let got = h.percentiles([50.0, 99.0]);
            for (pct, got) in [50.0, 99.0].into_iter().zip(got) {
                let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
                let want = sorted[rank.clamp(1, sorted.len()) - 1];
                assert!(
                    got.abs_diff(want) * 128 <= want,
                    "p{pct} of {} samples: {got} against {want}",
                    sorted.len()
                );
            }
        }
    }
}
