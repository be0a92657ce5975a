//! Spans for the traced run: one per timed call, kept in per-thread memory
//! and written out as CSV when the run ends.

use std::io::{BufWriter, Write};
use std::path::Path;

/// Span names, indexed by [`Span::name`].
pub const NAMES: &[&str] = &[
    "enqueue",
    "dequeue",
    "rtt",
    "send",
    "recv",
    "server.recv",
    "server.send",
    "rung",
    "micro",
];
pub const ENQUEUE: u8 = 0;
pub const DEQUEUE: u8 = 1;
pub const RTT: u8 = 2;
pub const SEND: u8 = 3;
pub const RECV: u8 = 4;
pub const SERVER_RECV: u8 = 5;
pub const SERVER_SEND: u8 = 6;
pub const RUNG: u8 = 7;
pub const MICRO: u8 = 8;

/// One timed call. `op` numbers the calls of one thread from 1; `parent`
/// is the `op` of the enclosing span (a round trip), 0 for none. For
/// `rung`/`micro` spans `op` indexes the rung or micro-benchmark.
#[derive(Clone, Copy, Debug, Default)]
pub struct Span {
    pub name: u8,
    pub thread: u8,
    pub op: u64,
    pub parent: u64,
    pub start: u64,
    pub end: u64,
}

impl Span {
    /// Duration in ticks.
    pub fn ticks(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A bounded per-thread span log: once full it overwrites its oldest
/// entries, so recording costs the same for the whole traced window.
pub struct SpanLog {
    buf: Vec<Span>,
    recorded: u64,
    cap: usize,
}

impl SpanLog {
    /// A log keeping the last `cap` spans (`cap` a power of two).
    pub fn new(cap: usize) -> Self {
        assert!(cap.is_power_of_two());
        Self {
            buf: Vec::new(),
            recorded: 0,
            cap,
        }
    }

    #[inline]
    pub fn record(&mut self, span: Span) {
        if self.buf.len() < self.cap {
            self.buf.push(span);
        } else {
            self.buf[(self.recorded as usize) & (self.cap - 1)] = span;
        }
        self.recorded += 1;
    }

    /// Spans recorded, including overwritten ones.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// The spans still held (unordered once the log has wrapped).
    pub fn spans(&self) -> &[Span] {
        &self.buf
    }
}

/// Writes every held span as `name,thread,op,parent,start_ns,end_ns`, times
/// in nanoseconds from the earliest span.
pub fn write_csv(path: &Path, logs: &[&SpanLog]) -> std::io::Result<()> {
    let origin = logs
        .iter()
        .flat_map(|l| l.spans())
        .map(|s| s.start)
        .min()
        .unwrap_or(0);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name,thread,op,parent,start_ns,end_ns")?;
    let ns = |t: u64| crate::clock::to_ns(t - origin);
    for s in logs.iter().flat_map(|l| l.spans()) {
        let name = match s.name {
            RUNG => format!("rung:{}", crate::ladder::RUNGS[s.op as usize]),
            MICRO => format!("micro:{}", crate::ladder::MICROS[s.op as usize]),
            n => NAMES[n as usize].to_string(),
        };
        writeln!(
            out,
            "{},{},{},{},{:.1},{:.1}",
            name,
            s.thread,
            s.op,
            s.parent,
            ns(s.start),
            ns(s.end)
        )?;
    }
    out.flush()
}
