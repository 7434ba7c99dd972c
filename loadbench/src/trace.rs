//! Harness spans: recorded around the harness's own calls into the
//! cluster, kept in memory, written as JSON lines when the run ends.
//! Spans of one publication share its `seq` as id.

use std::io::Write;
use std::path::Path;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The publication's `seq` (subscription id for `subscribe_call`,
    /// sweep number for `drain_call`).
    pub id: u64,
}

/// One thread's span buffer. Per-message spans are kept for one id in
/// `every`, so a multi-million-message run stays in memory.
pub struct Spans {
    every: u64,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(every: u64) -> Self {
        Spans {
            every,
            spans: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            id,
        });
    }

    pub fn sampled(&mut self, name: &'static str, start_ns: u64, end_ns: u64, id: u64) {
        if id.is_multiple_of(self.every) {
            self.push(name, start_ns, end_ns, id);
        }
    }

    pub fn into_vec(self) -> Vec<Span> {
        self.spans
    }
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, s.id
        )?;
    }
    out.flush()
}
