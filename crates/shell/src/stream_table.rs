//! The stream table: one row per access point.
//!
//! Paper Section 5.1: "each shell locally contains the configuration data
//! for the streams that are incident with tasks mapped on its coprocessor
//! ... The shells implement a local stream table that contains a row of
//! fields for each stream, or more precisely, for each access point."
//!
//! A row holds the cyclic-buffer coordinates, the current access point,
//! the locally known *space* value (a possibly pessimistic distance to the
//! other access point), and the identity of the remote access point(s) to
//! which `putspace` messages are sent.
//!
//! Forked streams (one producer, several consumers) are handled on the
//! producer side by tracking space per consumer; the effective space is
//! the minimum — a byte's room is only recycled once *every* consumer has
//! released it.

use eclipse_mem::CyclicBuffer;
use eclipse_sim::snapshot::SnapError;
use eclipse_sim::stats::TimeWeighted;
use eclipse_sim::Cycle;

use crate::ShellId;

/// Index of a row within one shell's stream table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RowIdx(pub u16);

eclipse_sim::snap_fields!(RowIdx { 0 });

/// Globally identifies an access point: a (shell, stream-table row) pair.
/// Ordered by shell, then row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AccessPoint {
    /// The shell holding the row.
    pub shell: ShellId,
    /// The row within that shell's stream table.
    pub row: RowIdx,
}

eclipse_sim::snap_fields!(AccessPoint { shell, row });

/// Direction of an access point relative to the stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum PortDir {
    /// Writes data; `space` counts available *room*.
    #[default]
    Producer,
    /// Reads data; `space` counts available *data*.
    Consumer,
}

eclipse_sim::snap_enum!(PortDir { Producer = 0, Consumer = 1 });

/// Configuration of one stream-table row (programmed by the CPU over the
/// PI bus when an application graph is set up).
#[derive(Debug, Clone)]
pub struct StreamRowConfig {
    /// The stream's cyclic buffer in shared memory.
    pub buffer: CyclicBuffer,
    /// Producer or consumer side.
    pub dir: PortDir,
    /// Remote access points: for a producer, all consumers of the stream;
    /// for a consumer, exactly the producer.
    pub remotes: Vec<AccessPoint>,
}

/// Measurement fields of a row (paper Section 5.4: "measurement data is
/// accumulated in the stream and task tables").
#[derive(Debug, Clone, Default)]
pub struct StreamRowStats {
    /// Total bytes committed through this access point.
    pub bytes_committed: u64,
    /// `PutSpace` calls issued here.
    pub putspace_calls: u64,
    /// `GetSpace` calls answered here.
    pub getspace_calls: u64,
    /// `GetSpace` calls denied.
    pub getspace_denied: u64,
    /// Incoming `putspace` messages received.
    pub messages_received: u64,
    /// Time-weighted effective space (buffer filling for consumers — the
    /// quantity plotted in the paper's Figure 10).
    pub space_trace: TimeWeighted,
}

/// One stream-table row. A checkpoint carries the full row —
/// configuration and dynamic state — so a restore can recreate rows that
/// were mapped at run time.
#[derive(Debug, Clone, Default)]
pub struct StreamRow {
    /// Static configuration.
    pub buffer: CyclicBuffer,
    /// Producer or consumer side.
    pub dir: PortDir,
    /// Remote access points (see [`StreamRowConfig::remotes`]).
    pub remotes: Vec<AccessPoint>,
    /// Current access point as an offset in the cyclic buffer.
    pub access_point: u32,
    /// Locally known space per remote; the effective value is the minimum.
    /// Producers start with a full buffer of room per consumer; consumers
    /// start with zero data.
    space: Vec<u32>,
    /// The minimum of `space`, kept in step with it so the scheduler and
    /// the primitives read one field. Derived state: never serialized,
    /// recomputed on load.
    effective: u32,
    /// Currently granted window (the largest `GetSpace` grant not yet
    /// released by `PutSpace`). Reads/writes must stay inside it.
    pub granted: u32,
    /// The row has been retired by run-time unmapping: its buffer is
    /// freed and the slot is available for recycling. Retired rows are
    /// skipped by the scheduler, the sampler, and the credit checker;
    /// `putspace` messages addressed to them are rejected as stale.
    pub retired: bool,
    /// Measurement fields.
    pub stats: StreamRowStats,
}

impl StreamRow {
    /// Build a row from its configuration.
    pub fn new(cfg: StreamRowConfig) -> Self {
        assert!(
            !cfg.remotes.is_empty(),
            "a stream row needs at least one remote"
        );
        if cfg.dir == PortDir::Consumer {
            assert_eq!(
                cfg.remotes.len(),
                1,
                "a consumer has exactly one remote (the producer)"
            );
        }
        let initial = match cfg.dir {
            PortDir::Producer => cfg.buffer.size,
            PortDir::Consumer => 0,
        };
        StreamRow {
            buffer: cfg.buffer,
            dir: cfg.dir,
            remotes: cfg.remotes.clone(),
            access_point: 0,
            space: vec![initial; cfg.remotes.len()],
            effective: initial,
            granted: 0,
            retired: false,
            stats: StreamRowStats::default(),
        }
    }

    /// The effective space: minimum over all remote links.
    #[inline]
    pub fn effective_space(&self) -> u32 {
        self.effective
    }

    /// The locally known space toward remote link `idx` (on a forked
    /// producer row each consumer has its own view; a consumer row has
    /// exactly one link). Used by the credit-conservation checker.
    #[inline]
    pub fn space_toward(&self, idx: usize) -> u32 {
        self.space[idx]
    }

    /// Answer a `GetSpace` inquiry locally (paper Figure 7: "the shell
    /// ... can answer a GetSpace request immediately by comparing the
    /// requested size with the locally stored space value"). On success
    /// the granted window is extended to at least `n` and the number of
    /// *newly granted* bytes (beyond any previous grant) is returned for
    /// cache invalidation; `None` is a denial.
    pub fn get_space(&mut self, n: u32, now: Cycle) -> Option<u32> {
        self.stats.getspace_calls += 1;
        if n > self.buffer.size {
            // Can never succeed; treated as a denial (a configuration
            // error the coprocessor must handle).
            self.stats.getspace_denied += 1;
            return None;
        }
        if self.effective_space() >= n {
            let newly = n.saturating_sub(self.granted);
            self.granted = self.granted.max(n);
            let _ = now;
            Some(newly)
        } else {
            self.stats.getspace_denied += 1;
            None
        }
    }

    /// Commit `n` bytes via `PutSpace`: advance the access point, shrink
    /// the local space (for every remote link), and report the bytes so
    /// the shell can emit `putspace` messages.
    ///
    /// # Panics
    /// Panics if `n` exceeds the granted window — the coprocessor violated
    /// the interface contract (paper: "in size constrained by the
    /// previously granted space").
    pub fn put_space(&mut self, n: u32, now: Cycle) {
        assert!(
            n <= self.granted,
            "PutSpace({n}) exceeds granted window {}",
            self.granted
        );
        self.granted -= n;
        for s in &mut self.space {
            debug_assert!(*s >= n);
            *s -= n;
        }
        self.effective -= n;
        self.access_point = self.buffer.wrap_add(self.access_point, n);
        self.stats.bytes_committed += n as u64;
        self.stats.putspace_calls += 1;
        self.stats
            .space_trace
            .set(now, self.effective_space() as f64);
    }

    /// Receive a `putspace` message from remote `src`: increment the space
    /// on that link (paper Figure 7).
    pub fn deliver_putspace(&mut self, src: AccessPoint, bytes: u32, now: Cycle) {
        let idx = self
            .remotes
            .iter()
            .position(|r| *r == src)
            .unwrap_or_else(|| panic!("putspace from unknown remote {src:?}"));
        self.space[idx] += bytes;
        self.effective = *self.space.iter().min().expect("row has remotes");
        debug_assert!(
            self.space[idx] <= self.buffer.size,
            "space overflow: {} > buffer {}",
            self.space[idx],
            self.buffer.size
        );
        self.stats.messages_received += 1;
        self.stats
            .space_trace
            .set(now, self.effective_space() as f64);
    }

    /// Reject a loaded row that breaks an invariant the primitives rely
    /// on: a nonzero buffer, one space counter per remote (exactly one
    /// remote for a consumer), and an access point, space values and
    /// grant inside the buffer.
    fn check(&mut self) -> Result<(), SnapError> {
        self.effective = self.space.iter().copied().min().unwrap_or(0);
        let size = self.buffer.size;
        let consumer_ok = self.dir == PortDir::Producer || self.remotes.len() == 1;
        if size == 0
            || self.remotes.is_empty()
            || !consumer_ok
            || self.space.len() != self.remotes.len()
            || self.access_point >= size
            || self.space.iter().any(|&s| s > size)
            || self.granted > self.effective_space()
        {
            return Err(SnapError::Corrupt("stream row"));
        }
        Ok(())
    }
}

eclipse_sim::snap_fields!(StreamRow {
    buffer,
    dir,
    remotes,
    access_point,
    space,
    granted,
    retired,
    stats,
} then StreamRow::check);

eclipse_sim::snap_fields!(StreamRowStats {
    bytes_committed,
    putspace_calls,
    getspace_calls,
    getspace_denied,
    messages_received,
    space_trace,
});

#[cfg(test)]
mod tests {
    use super::*;

    fn ap(shell: u16, row: u16) -> AccessPoint {
        AccessPoint {
            shell: ShellId(shell),
            row: RowIdx(row),
        }
    }

    fn producer(size: u32, consumers: usize) -> StreamRow {
        StreamRow::new(StreamRowConfig {
            buffer: CyclicBuffer::new(0x100, size),
            dir: PortDir::Producer,
            remotes: (0..consumers).map(|i| ap(1, i as u16)).collect(),
        })
    }

    fn consumer(size: u32) -> StreamRow {
        StreamRow::new(StreamRowConfig {
            buffer: CyclicBuffer::new(0x100, size),
            dir: PortDir::Consumer,
            remotes: vec![ap(0, 0)],
        })
    }

    #[test]
    fn producer_starts_with_full_room_consumer_empty() {
        assert_eq!(producer(64, 1).effective_space(), 64);
        assert_eq!(consumer(64).effective_space(), 0);
    }

    #[test]
    fn get_space_grants_within_space() {
        let mut p = producer(64, 1);
        assert_eq!(p.get_space(40, 0), Some(40));
        // Extending the window: only the delta is newly granted.
        assert_eq!(p.get_space(50, 0), Some(10));
        // Re-inquiring a smaller window grants nothing new.
        assert_eq!(p.get_space(20, 0), Some(0));
        assert_eq!(p.granted, 50);
    }

    #[test]
    fn get_space_denied_when_insufficient() {
        let mut c = consumer(64);
        assert_eq!(c.get_space(1, 0), None);
        assert_eq!(c.stats.getspace_denied, 1);
        c.deliver_putspace(ap(0, 0), 16, 5);
        assert_eq!(c.get_space(16, 6), Some(16));
        assert_eq!(c.get_space(17, 7), None);
    }

    #[test]
    fn oversized_request_is_denied_not_panicking() {
        let mut p = producer(64, 1);
        assert_eq!(p.get_space(65, 0), None);
    }

    #[test]
    fn put_space_advances_and_wraps() {
        let mut p = producer(32, 1);
        p.get_space(32, 0).unwrap();
        p.put_space(20, 1);
        assert_eq!(p.access_point, 20);
        assert_eq!(p.effective_space(), 12);
        // Consumer releases room.
        p.deliver_putspace(ap(1, 0), 20, 2);
        assert_eq!(p.effective_space(), 32);
        p.get_space(20, 3).unwrap();
        p.put_space(20, 3);
        assert_eq!(p.access_point, 8); // wrapped
    }

    #[test]
    #[should_panic(expected = "exceeds granted window")]
    fn put_space_beyond_grant_panics() {
        let mut p = producer(64, 1);
        p.get_space(10, 0).unwrap();
        p.put_space(11, 1);
    }

    #[test]
    fn forked_stream_space_is_min_over_consumers() {
        let mut p = producer(64, 2);
        p.get_space(64, 0).unwrap();
        p.put_space(64, 1); // buffer now full
        assert_eq!(p.effective_space(), 0);
        p.deliver_putspace(ap(1, 0), 64, 2); // consumer 0 released all
        assert_eq!(
            p.effective_space(),
            0,
            "slowest consumer gates the producer"
        );
        p.deliver_putspace(ap(1, 1), 48, 3);
        assert_eq!(p.effective_space(), 48);
    }

    #[test]
    fn stats_accumulate() {
        let mut c = consumer(64);
        let _ = c.get_space(8, 0);
        c.deliver_putspace(ap(0, 0), 16, 1);
        c.get_space(8, 2).unwrap();
        c.put_space(8, 3);
        assert_eq!(c.stats.getspace_calls, 2);
        assert_eq!(c.stats.getspace_denied, 1);
        assert_eq!(c.stats.putspace_calls, 1);
        assert_eq!(c.stats.bytes_committed, 8);
        assert_eq!(c.stats.messages_received, 1);
    }

    #[test]
    #[should_panic(expected = "unknown remote")]
    fn putspace_from_unknown_remote_panics() {
        let mut c = consumer(64);
        c.deliver_putspace(ap(9, 9), 8, 0);
    }
}
