//! In-memory spans around the calls the benchmark makes into each layer,
//! written out when the run ends. Spans are recorded only in a traced run;
//! untraced runs pay one branch per call site.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A closed span: name, start and end (ns since the tracer started), and
/// the span that caused it (0 for none).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; pass it back to [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&self, name: &'static str) -> Option<Open> {
        self.open_child(name, 0)
    }

    pub fn open_child(&self, name: &'static str, parent: u64) -> Option<Open> {
        self.enabled.then(|| Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start_ns: self.now_ns(),
        })
    }

    pub fn close(&self, open: Option<Open>) {
        let Some(open) = open else {
            return;
        };
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span log").push(span);
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log").len()
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans.lock().expect("span log");
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            out.push_str(&format!(
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}\n",
                s.id, s.parent, s.name, s.start_ns, s.end_ns
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let open = tracer.open("x");
        assert!(open.is_none());
        tracer.close(open);
        assert_eq!(tracer.len(), 0);
    }

    #[test]
    fn spans_record_their_cause() {
        let tracer = Tracer::new(true);
        let write = tracer.open("write");
        let cause = write.map(|o| o.id()).unwrap();
        tracer.close(write);
        let read = tracer.open_child("read", cause);
        tracer.close(read);
        let lines = tracer.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(
            lines.contains(&format!("\"parent\": {cause}, \"name\": \"read\"")),
            "{lines}"
        );
    }
}
