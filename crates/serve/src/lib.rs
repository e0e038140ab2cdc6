//! Refinement-as-a-service: a crash-safe multi-tenant job server over
//! the fixref refinement flow.
//!
//! The paper's methodology turns floating-point DSP designs into
//! fixed-point ones through a long, simulation-heavy refinement flow —
//! exactly the kind of work a design team queues, shares and expects
//! to survive a machine reboot. This crate wraps the flow in a small
//! server:
//!
//! - **Jobs are data.** A [`fixref_core::JobSpec`] names a registered
//!   design kind ([`DesignRegistry`]), a scenario set and a flow
//!   configuration; the server reconstructs the design
//!   deterministically, so a served job is bit-comparable to a direct
//!   run of the same spec.
//! - **Admission control, not buffering.** The queue is bounded
//!   globally and per tenant; a submission past either limit is
//!   rejected with a reason ([`Rejection`]) — the server never grows
//!   without bound.
//! - **Crash safety by write-ahead logging.** Every accepted job is
//!   fsynced to the jobs log ([`JobLog`]) before it becomes visible,
//!   progress is checkpointed atomically per job, and terminal records
//!   commit only after the result file is on disk. `kill -9` at any
//!   instant loses no accepted job and duplicates none; a restarted
//!   server resumes in-flight jobs from their checkpoints
//!   bit-identically.
//! - **Isolation and retry.** Worker panics are caught at the job
//!   boundary and retried with deterministic jittered backoff
//!   ([`fixref_sim::RetryPolicy`]); a cancelled running job finishes
//!   as a best-so-far partial result through the same path as budget
//!   exhaustion.
//! - **A line protocol, not a framework.** `submit` / `status` /
//!   `result` / `journal` / `cancel` / `metrics` / `shutdown` as
//!   newline-delimited JSON over `std::net::TcpListener`
//!   ([`protocol`]), with a transport-free dispatcher for tests.
//!
//! Graceful shutdown is the protocol's `shutdown` command followed by
//! [`Server::drain`]; there is no signal handler (std-only, no unsafe),
//! and none is needed — abrupt death is the recovery path's job, and
//! it is exercised, not just designed for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod wal;

pub use job::{JobResult, JobState, JobStatus};
pub use registry::DesignRegistry;
pub use server::{Rejection, ServeError, Server, ServerConfig, LIFECYCLE_EVENTS};
pub use wal::{JobLog, WalRecord};
