//! The benchmark's own in-memory span recorder.
//!
//! On a traced run every call from the benchmark into a layer is wrapped
//! in a span (name, start, end, parent, round id). Spans stay in memory
//! and are written out as a chrome-trace file when the run ends; the
//! per-layer stage timings are read back off the same spans. On an
//! end-to-end run the recorder is off and `begin`/`end` do nothing — not
//! even read the clock.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

/// Spans kept per run; beyond it spans are counted, not stored (a fleet
/// pass alone makes >100 k member steps).
const CAPACITY: usize = 400_000;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Round / search / probe id shared by the spans of one unit of work.
    pub round: u64,
}

/// An open span: hand it back to [`Recorder::end`].
#[must_use]
pub struct Open {
    slot: Option<u32>,
    start: Option<Instant>,
}

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            dropped: 0,
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, round: u64) -> Open {
        if !self.on {
            return Open {
                slot: None,
                start: None,
            };
        }
        let now = Instant::now();
        let slot = if self.spans.len() < CAPACITY {
            let ix = self.spans.len() as u32;
            self.spans.push(Span {
                name,
                start_ns: now.duration_since(self.epoch).as_nanos() as u64,
                end_ns: 0,
                parent: self.stack.last().copied(),
                round,
            });
            self.stack.push(ix);
            Some(ix)
        } else {
            self.dropped += 1;
            None
        };
        Open {
            slot,
            start: Some(now),
        }
    }

    /// Closes `open`; returns its duration (zero when the recorder is off).
    pub fn end(&mut self, open: Open) -> Duration {
        let Some(start) = open.start else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        if let Some(ix) = open.slot {
            self.spans[ix as usize].end_ns = now.duration_since(self.epoch).as_nanos() as u64;
            debug_assert_eq!(self.stack.last(), Some(&ix), "spans close innermost-first");
            self.stack.pop();
        }
        now.duration_since(start)
    }

    /// Stores a span timed elsewhere (inside a callback the layer under
    /// test owns), under the innermost open span.
    pub fn record(&mut self, name: &'static str, round: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        if self.spans.len() >= CAPACITY {
            self.dropped += 1;
            return;
        }
        self.spans.push(Span {
            name,
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            end_ns: end.saturating_duration_since(self.epoch).as_nanos() as u64,
            parent: self.stack.last().copied(),
            round,
        });
    }

    /// Durations (µs) of every closed span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns >= s.start_ns && s.end_ns != 0)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Writes the spans as chrome trace-event JSON (`ph:"X"`, µs).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let layer = s.name.split('.').next().unwrap_or("bench");
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"cat\":\"{layer}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\"round\":{}}}}}{sep}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.round,
            )?;
        }
        writeln!(w, "]")?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_and_off_mode() {
        let mut r = Recorder::new(true);
        let outer = r.begin("core.round", 7);
        let inner = r.begin("core.submit", 7);
        r.end(inner);
        r.end(outer);
        assert_eq!(r.len(), 2);
        assert_eq!(r.spans[1].parent, Some(0));
        assert_eq!(r.spans[0].parent, None);
        assert_eq!(r.durations_us("core.submit").len(), 1);

        let mut off = Recorder::new(false);
        let o = off.begin("x.y", 0);
        assert_eq!(off.end(o), Duration::ZERO);
        assert_eq!(off.len(), 0);
    }
}
