#![warn(missing_docs)]

//! # eclipse-shell — the coprocessor shell
//!
//! The shell is the paper's central architectural idea (Sections 3.1, 5):
//! a generic hardware block instantiated next to every coprocessor that
//! absorbs all system-level concerns — multi-tasking, stream
//! synchronization, and data transport — behind the five-primitive
//! task-level interface, so coprocessor designers "can concentrate on
//! application functionality".
//!
//! One [`Shell`] instance contains:
//!
//! * a **stream table** ([`stream_table`]) with one row per access point
//!   (task port), holding the cyclic-buffer coordinates, the locally known
//!   `space` value, and the identity of the remote access point(s) —
//!   the distributed synchronization state of paper Section 5.1;
//! * per-row **stream caches** ([`cache`]) whose coherency is driven
//!   *explicitly* by GetSpace (invalidate newly granted space) and
//!   PutSpace (flush dirty data before the `putspace` message leaves) —
//!   paper Section 5.2 — plus GetSpace/Read-triggered prefetch;
//! * a **task table and scheduler** ([`task_table`]) implementing weighted
//!   round-robin selection with per-task cycle budgets and the
//!   "best guess" eligibility test over locally known space and previously
//!   denied requests — paper Section 5.3 (and its companion paper, reference 13);
//! * **performance measurement** counters accumulated per task and per
//!   stream — paper Section 5.4.
//!
//! The shell is *passive*: `eclipse-core` drives it from the simulation
//! loop (the coprocessor has the initiative; all five primitives are
//! calls *into* the shell).

pub mod cache;
pub mod regs;
pub mod shell;
pub mod stream_table;
pub mod sync_fabric;
pub mod task_table;

pub use cache::{CacheConfig, CacheStats, MemSys, StreamCache};
pub use shell::{
    GetTaskResult, PutSpaceOutcome, SchedPolicy, Shell, ShellConfig, ShellStats, SyncMsg,
};
pub use stream_table::{AccessPoint, PortDir, RowIdx, StreamRowConfig, StreamRowStats};
pub use sync_fabric::{
    DirectSyncFabric, MeshSyncFabric, RingSyncFabric, SyncFabric, SyncFabricConfig, SyncFabricStats,
};
pub use task_table::{TaskConfig, TaskIdx, TaskStats};

/// Identifies one shell (and its coprocessor) within an Eclipse instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShellId(pub u16);

eclipse_sim::snap_fields!(ShellId { 0 });

/// Port index within a task (the `port_id` argument of the primitives).
pub type PortId = u8;
