//! Known-bad fixture: the polls table requires every `poll_ops`
//! chunked loop to load `killed`; this loop serves its chunks without
//! ever looking at the kill flag, so it must surface as a
//! `blocking-in-poll` finding.

pub struct Worker;

impl Worker {
    pub fn drain(&self, queue: &[u64], poll_ops: usize) {
        for chunk in queue.chunks(poll_ops) {
            let _ = chunk;
        }
    }
}
