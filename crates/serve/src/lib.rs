//! # rolag-serve
//!
//! A persistent compilation service for the RoLAG IR: a long-lived daemon
//! that accepts streams of textual-IR modules — over a unix socket or as
//! a stdin batch — rolls them through the parallel memoizing driver, and
//! **content-addresses every request and every function**, so a repeated
//! request is answered without compiling and structurally identical code
//! arriving from different clients (or different requests of the same
//! client) compiles exactly once.
//!
//! The pieces, each its own module:
//!
//! * [`json`] — a hand-rolled JSON codec (the workspace has no external
//!   dependencies).
//! * [`proto`] — the newline-delimited JSON request/response protocol; a
//!   request names an options preset, resolved by
//!   [`RolagOptions::preset`](rolag::RolagOptions::preset).
//! * [`server`] — the [`Server`]: one persistent
//!   [`WorkerPool`](rolag_par::WorkerPool) plus two bounded
//!   [`MemoStore`](rolag::MemoStore)s shared by every connection, and the
//!   cumulative metrics (request hits, per-request and cumulative store
//!   hit rates, funcs/sec, p50/p99 latency).
//!
//! The first cache holds whole replies, keyed by the preset name and the
//! full module text. A reply is a pure function of the two, so a repeated
//! request is answered from it without touching the IR. The second, the
//! store, is keyed by the *closure key* of [`rolag::store_key`]:
//! canonical function text plus the printed definitions of every
//! referenced global, the signature/effects of every callee, the
//! function's own effects, and the options fingerprint. It is the same key
//! the driver groups a module's definitions by, and a hit replays through
//! the same `StoreEntry` replay that serves in-module duplicates. A hit
//! therefore guarantees the cached rolled body is byte-identical to what
//! rolling the request cold would produce — the property
//! `tests/serve_determinism.rs` pins for both caches over the repro corpus
//! and a generator sweep.
//!
//! ```
//! use rolag_serve::{Server, ServerConfig};
//! use rolag_serve::proto::parse_reply;
//!
//! let server = Server::new(&ServerConfig { jobs: 2, capacity: 64 });
//! let line = r#"{"id": "r1", "module": "module \"m\"\nfunc @f() -> void {\nentry:\n  ret\n}\n"}"#;
//! let (response, shutdown) = server.handle_line(line);
//! assert!(!shutdown);
//! assert!(parse_reply(&response).unwrap().ok);
//! ```

#![warn(missing_docs)]

pub mod json;
pub mod proto;
pub mod server;

pub use server::{Server, ServerConfig, Snapshot};
