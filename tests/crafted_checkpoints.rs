//! Crafted checkpoints: each patches one field of a real mid-run
//! checkpoint to a value no run can produce, and `restore` must return
//! `SnapError::Corrupt` — neither abort on an allocation sized by the
//! field, nor panic on it, nor accept it and fail later in the run.
//!
//! The system is the two-app synthetic pipeline. Shell 0 (`src0`) holds
//! one producer row and one task, so the fields of its tables sit at
//! offsets the checkpoint layout fixes; the tests find them by walking
//! the encoding, not by hard-coded positions.

use eclipse_bench::synthetic::open_gate_system;
use eclipse_core::EclipseSystem;
use eclipse_sim::snapshot::{SnapError, SnapReader};

/// A huge element count: no allocation may be sized by it.
const HUGE: u64 = 1 << 40;

fn system() -> EclipseSystem {
    open_gate_system(64, 90)
}

fn checkpoint() -> Vec<u8> {
    let mut sys = system();
    assert!(sys.run_until(2_000).is_none(), "pipeline ended early");
    sys.save()
}

/// Byte offsets of the fields the tests patch.
struct Layout {
    /// The first application record's first task shell, and the pending
    /// syncs' entry count (the section after the application records).
    app_task_shell: usize,
    pending_syncs: usize,
    /// Shell 0's coprocessor: the task index of its one progress entry.
    coproc_task: usize,
    /// Shell index of the first calendar event (a step).
    step_shell: usize,
    /// Shell 0: row count, its row's buffer and remote count and row.
    rows: usize,
    row_base: usize,
    row_size: usize,
    remotes: usize,
    remote_row: usize,
    /// Shell 0: its row's cache line count, the task count, the task's
    /// port count and first port.
    cache_lines: usize,
    tasks: usize,
    ports: usize,
    port_row: usize,
}

/// Walk the checkpoint to the patched fields.
fn layout(bytes: &[u8]) -> Layout {
    let mut r = SnapReader::new(bytes);
    let at = |r: &SnapReader| bytes.len() - r.remaining();
    r.raw(20).unwrap(); // magic, version, config digest
    r.u64().unwrap(); // now
    let mut step_shell = None;
    for _ in 0..r.usize().unwrap() {
        r.u64().unwrap(); // time
        match r.u8().unwrap() {
            0 => {
                step_shell.get_or_insert(at(&r));
                r.usize().unwrap();
            }
            1 => {
                r.raw(24).unwrap(); // access points, bytes, send time, generation
            }
            _ => {}
        }
    }
    let step_shell = step_shell.expect("a step is pending");
    r.usize().unwrap(); // shell count
    let rows = at(&r);
    assert_eq!(r.usize().unwrap(), 1, "shell 0 has one row");
    let row_base = at(&r);
    r.u32().unwrap();
    let row_size = at(&r);
    r.u32().unwrap();
    r.u8().unwrap(); // direction
    let remotes = at(&r);
    assert_eq!(r.usize().unwrap(), 1, "one consumer");
    r.u16().unwrap(); // remote shell
    let remote_row = at(&r);
    r.u16().unwrap();
    // Access point, one space value, grant, retired flag, five counters
    // and the time-weighted space.
    r.raw(4 + 8 + 4 + 4 + 1 + 40 + 41).unwrap();
    let cache_lines = at(&r);
    let lines = r.usize().unwrap();
    let line_bytes = r.u32().unwrap() as usize;
    r.raw(1 + 4 + lines * (21 + line_bytes) + 48).unwrap();
    let tasks = at(&r);
    assert_eq!(r.usize().unwrap(), 1, "shell 0 has one task");
    let name = r.usize().unwrap();
    r.raw(name + 8 + 4).unwrap(); // name, budget, task info
    let ports = at(&r);
    assert_eq!(r.usize().unwrap(), 1);
    let port_row = at(&r);

    // The application records follow memory and the fabrics; find them
    // by the encoding of their count and first name.
    let mut apps = 2u64.to_le_bytes().to_vec();
    apps.extend(4u64.to_le_bytes());
    apps.extend(b"app0");
    let apps = (bytes.windows(apps.len()).position(|w| w == apps)).expect("app records") + 8;
    let mut r = SnapReader::new(&bytes[apps..]);
    let at = |r: &SnapReader| bytes.len() - r.remaining();
    let mut app_task_shell = 0;
    for app in 0..2 {
        let name = r.usize().unwrap();
        r.raw(name + 1).unwrap(); // name, state
        for i in 0..r.usize().unwrap() {
            if app == 0 && i == 0 {
                app_task_shell = at(&r);
            }
            r.raw(8 + 1).unwrap(); // shell, task
        }
        let rows = r.usize().unwrap();
        r.raw(rows * (8 + 2)).unwrap();
        let buffers = r.usize().unwrap();
        r.raw(buffers * 8).unwrap();
    }
    let pending_syncs = at(&r);

    // The coprocessor section ends the checkpoint (tracing is off): a
    // count, then each stage's progress map of one `(task, packets)`.
    let coproc_task = bytes.len() - 1 - 4 * 13 + 8;
    assert_eq!(
        &bytes[coproc_task - 16..coproc_task - 8],
        4u64.to_le_bytes()
    );
    Layout {
        app_task_shell,
        pending_syncs,
        coproc_task,
        step_shell,
        rows,
        row_base,
        row_size,
        remotes,
        remote_row,
        cache_lines,
        tasks,
        ports,
        port_row,
    }
}

/// Restore `checkpoint` with `patch` applied to the bytes at `offset`;
/// it must be rejected as corrupt.
fn assert_corrupt(offset: impl Fn(&Layout) -> usize, patch: &[u8]) {
    let mut bytes = checkpoint();
    let at = offset(&layout(&bytes));
    bytes[at..at + patch.len()].copy_from_slice(patch);
    let got = system().restore(&bytes);
    assert!(matches!(got, Err(SnapError::Corrupt(_))), "{got:?}");
}

#[test]
fn huge_shell_row_count_is_corrupt() {
    assert_corrupt(|l| l.rows, &HUGE.to_le_bytes());
}

#[test]
fn huge_shell_task_count_is_corrupt() {
    assert_corrupt(|l| l.tasks, &HUGE.to_le_bytes());
}

#[test]
fn huge_row_remote_count_is_corrupt() {
    assert_corrupt(|l| l.remotes, &HUGE.to_le_bytes());
}

#[test]
fn huge_task_port_count_is_corrupt() {
    assert_corrupt(|l| l.ports, &HUGE.to_le_bytes());
}

#[test]
fn huge_cache_line_count_is_corrupt() {
    assert_corrupt(|l| l.cache_lines, &HUGE.to_le_bytes());
}

#[test]
fn zero_size_row_buffer_is_corrupt() {
    assert_corrupt(|l| l.row_size, &0u32.to_le_bytes());
}

#[test]
fn row_buffer_past_sram_is_corrupt() {
    assert_corrupt(|l| l.row_base, &0xFFFF_0000u32.to_le_bytes());
}

#[test]
fn unknown_remote_row_is_corrupt() {
    assert_corrupt(|l| l.remote_row, &999u16.to_le_bytes());
}

#[test]
fn unknown_task_port_row_is_corrupt() {
    assert_corrupt(|l| l.port_row, &999u16.to_le_bytes());
}

#[test]
fn step_for_unknown_shell_is_corrupt() {
    assert_corrupt(|l| l.step_shell, &999u64.to_le_bytes());
}

#[test]
fn pending_sync_for_unknown_shell_is_corrupt() {
    let mut entry = 1u64.to_le_bytes().to_vec();
    entry.extend(HUGE.to_le_bytes());
    entry.extend([0; 6]); // row, count
    assert_corrupt(|l| l.pending_syncs, &entry);
}

#[test]
fn app_task_on_unknown_shell_is_corrupt() {
    assert_corrupt(|l| l.app_task_shell, &99u64.to_le_bytes());
}

#[test]
fn coprocessor_task_map_disagreeing_with_its_shell_is_corrupt() {
    assert_corrupt(|l| l.coproc_task, &[7]);
}
