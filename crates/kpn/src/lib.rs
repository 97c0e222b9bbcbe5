#![warn(missing_docs)]

//! # eclipse-kpn — Kahn Process Network application model
//!
//! Eclipse specifies media applications as Kahn Process Networks (paper
//! Section 2.1): a set of concurrently executing tasks that exchange
//! information solely through unidirectional, FIFO-buffered data streams.
//! Kahn proved that the *functional* behaviour of such a network — the
//! sequence of bytes on every edge — is independent of the order in which
//! tasks execute.
//!
//! This crate holds the application graph description ([`AppGraph`],
//! [`GraphBuilder`]): tasks, ports, and streams with buffer sizes. The
//! Eclipse architecture simulator (`eclipse-core`) consumes it when
//! mapping tasks onto coprocessors; the streams themselves are carried by
//! the shells' GetSpace/Read/Write/PutSpace window protocol
//! (`eclipse-shell`).

pub mod graph;

pub use graph::{AppGraph, GraphBuilder, GraphError, PortIndex, StreamId, TaskId};
