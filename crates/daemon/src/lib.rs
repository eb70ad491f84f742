//! # wb-daemon — `wbd`, the multi-tenant white-box streaming daemon
//!
//! The engine's binaries play one game and exit; `wbd` is the
//! long-running form the paper's model actually describes — a shared
//! service whose co-tenants are the adversary. A single node accepts
//! newline-delimited JSON over TCP, multiplexes thousands of tenants onto
//! the [`wb_engine::pool`] work queue, shards mergeable tenants through
//! [`wb_engine::shard::ShardPipeline`]s, and answers sketch queries
//! online, with every backpressure point (tenant inboxes, pool queue,
//! shard queues) bounded and counted.
//!
//! **Determinism contract.** A tenant's state is a pure function of its
//! own update sequence and its derived seeds
//! (`derive_seed(base, ["tenant", id])`, then `["ctor"]` / `["game"]`):
//! final answers are byte-identical to an offline engine run of the same
//! stream, for any session interleaving, `--threads` count, or ingest
//! batch sizes. The root `daemon_loopback` / `daemon_determinism` tests
//! assert exactly this.
//!
//! **White-box caveat.** Serving sketches over a socket does not hide
//! them: in this model every tenant's internal state and random tape are
//! public by definition (seeds are derived from public inputs and echoed
//! by `hello`). `wbd` never pretends otherwise — `snapshot-stats` and
//! `metrics` expose state cheerfully; only algorithms that are robust
//! under full exposure should be deployed multi-tenant.
//!
//! **Platform.** `wbd` is Linux-only: every session runs on one epoll
//! event loop. A port would add one `poll(2)` reactor, not a second
//! session backend.
//!
//! Modules: [`json`] (hand-rolled reader/writer), [`proto`] (wire types +
//! typed errors), [`tenant`] (per-tenant engine + inbox), [`dispatch`]
//! (re-entrant request handlers that park instead of blocking),
//! [`reactor`] (the epoll session loop), [`server`] (listener, tenant
//! registry, graceful drain), [`metrics`] (snapshots and the `top` view),
//! [`client`] (the scripting client).

#[cfg(not(target_os = "linux"))]
compile_error!("wb-daemon requires Linux: its session reactor is built on epoll");

pub mod client;
pub mod dispatch;
pub mod json;
pub mod metrics;
pub mod proto;
pub mod reactor;
pub mod server;
pub mod tenant;

pub use json::Json;
pub use proto::{ErrorKind, ProtoError, Request};
pub use server::{DaemonConfig, Server};
