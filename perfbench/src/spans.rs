//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in this benchmark's own code, around its calls
//! into each layer's public functions; nothing inside the workspace crates
//! is instrumented. A disabled [`Tracer`] reads no clock and stores
//! nothing, so the end-to-end runs pay one branch per boundary.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// The group id of spans recorded during set-up.
pub const SETUP_GROUP: u64 = u64::MAX;

/// One closed (or, after a caught panic, force-closed) span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Index of the enclosing span in the recorder, if any.
    pub parent: Option<u32>,
    /// Instance or trace the span belongs to ([`SETUP_GROUP`] in set-up).
    pub group: u64,
    /// Epoch index within the trace, for spans that belong to one epoch.
    pub epoch: Option<u32>,
    /// Layer span name, `crate.module`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Token returned by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use]
pub struct Tok(Option<u32>);

/// A span recorder that is either on (records) or off (does nothing).
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
    stack: Vec<u32>,
    group: u64,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            origin: None,
            spans: Vec::new(),
            stack: Vec::new(),
            group: 0,
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            origin: Some(Instant::now()),
            spans: Vec::with_capacity(1 << 14),
            ..Tracer::off()
        }
    }

    /// Sets the group id stamped on the spans entered from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Tok {
        self.enter_epoch(name, None)
    }

    /// [`Tracer::enter`] for a span that belongs to one epoch of a trace.
    pub fn enter_epoch(&mut self, name: &'static str, epoch: Option<u32>) -> Tok {
        let Some(origin) = self.origin else {
            return Tok(None);
        };
        let id = self.spans.len() as u32;
        let now = origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            parent: self.stack.last().copied(),
            group: self.group,
            epoch,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.stack.push(id);
        Tok(Some(id))
    }

    /// Closes the span `tok` opened.
    pub fn exit(&mut self, tok: Tok) {
        if let (Some(origin), Some(id)) = (self.origin, tok.0) {
            self.spans[id as usize].end_ns = origin.elapsed().as_nanos() as u64;
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let tok = self.enter(name);
        let out = f();
        self.exit(tok);
        out
    }

    /// Closes every span opened above `depth` (after a caught panic).
    pub fn close_to(&mut self, depth: usize) {
        while self.stack.len() > depth {
            let id = self.stack.len() - 1;
            self.exit(Tok(Some(self.stack[id])));
        }
    }

    /// All recorded spans, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let epoch = s.epoch.map_or("null".to_string(), |e| e.to_string());
            let group = if s.group == SETUP_GROUP {
                "\"setup\"".to_string()
            } else {
                s.group.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{group},\"epoch\":{epoch},\
                 \"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.name,
                s.start_ns,
                s.dur_ns()
            )?;
        }
        out.flush()
    }
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default)]
pub struct NameStats {
    /// Number of spans.
    pub calls: usize,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed duration minus the time covered by direct children.
    pub self_ns: u64,
}

/// Per-name totals over the spans whose group `keep` accepts.
pub fn summarize(spans: &[Span], keep: impl Fn(u64) -> bool) -> BTreeMap<&'static str, NameStats> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.dur_ns();
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        if !keep(s.group) {
            continue;
        }
        let e = out.entry(s.name).or_default();
        e.calls += 1;
        e.total_ns += s.dur_ns();
        e.self_ns += s.dur_ns().saturating_sub(children);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        let root = tr.enter("unit");
        let child = tr.enter("core.check");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(child);
        tr.exit(root);
        let sum = summarize(tr.spans(), |_| true);
        let (u, c) = (sum["unit"], sum["core.check"]);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(c.total_ns >= 2_000_000);
        assert_eq!(u.self_ns, u.total_ns - c.total_ns);
    }

    #[test]
    fn off_records_nothing_and_close_to_unwinds() {
        let mut off = Tracer::off();
        let t = off.enter("unit");
        off.exit(t);
        assert!(off.spans().is_empty());

        let mut tr = Tracer::on();
        let _a = tr.enter("unit");
        let _b = tr.enter("engine.run");
        tr.close_to(0);
        assert_eq!(tr.depth(), 0);
        assert!(tr.spans().iter().all(|s| s.end_ns >= s.start_ns));
    }
}
