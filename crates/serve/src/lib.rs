//! # cestim-serve
//!
//! A long-lived simulation service over the cestim exec engine: the
//! ROADMAP's "batch reproduction → serving system" step. The paper's
//! SENS/SPEC/PVP/PVN sweeps are overlapping, cacheable units of work;
//! this crate serves them to many concurrent clients instead of one
//! batch driver.
//!
//! Layers (see docs/SERVING.md for the full protocol and semantics):
//!
//! * [`protocol`] — line-delimited JSON requests/responses with total,
//!   panic-free parsing and structured error codes.
//! * [`sched`] — admission control: cache-key-range sharding across
//!   worker groups, and per-client weighted fair queuing (deficit
//!   round-robin) with bounded depth and explicit backpressure.
//! * [`server`] — the engine front end: shard workers that run each
//!   job through one [`cestim_exec::Executor`] (warm-cache serving,
//!   isolation, faults, deadlines, journaling), `serve.*` metrics and
//!   spans, scheduled stale-cache sweeps, and the TCP / in-process
//!   client surfaces.
//! * [`overload`] — overload control: load-shedding hysteresis over
//!   queue-depth/p99 watermarks and per-client circuit breakers (the
//!   failure model in docs/SERVING.md).
//! * [`client`] — [`ServeClient`]: the one TCP client for the protocol
//!   (one reconnecting socket, one send path, one framing-safe receive
//!   path), with deterministic retry/backoff/jitter and idempotent
//!   re-submission keyed on cache keys.
//! * [`chaos`] — a deterministic fault-injecting TCP proxy
//!   ([`ChaosProxy`]) for network-chaos testing: seeded drops,
//!   truncation, delays, garbage, and mid-stream resets.
//! * [`load`] — the deterministic seeded load harness behind the
//!   `serve-load` binary (which replays it over a [`ServeClient`]) and
//!   the mix of the `serve` workload of `perfbench/`.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod load;
pub mod overload;
pub mod protocol;
pub mod sched;
pub mod server;

pub use chaos::{ChaosPlan, ChaosProxy, ChaosStats};
pub use client::{ClientReport, ServeClient};
pub use overload::{BreakerConfig, Breakers, OverloadGate, ShedConfig, WaitWindow};
pub use protocol::{
    parse_line, parse_response, render_request, render_response, ErrorCode, ProtoError, Request,
    RequestLimits, Response, MAX_LINE_BYTES,
};
pub use sched::{shard_of, DrrQueue, Ticket};
pub use server::{InProcClient, ServeConfig, Server};
